(* Warm-started branch & bound, pinned by a differential harness.

   The warm path (Simplex snapshots + bounded dual simplex) is an
   optimization that must be semantically invisible: these tests compare
   it against the cold path on random repair-shaped MILP instances over
   both coefficient fields, pin the basis invariants the warm restart
   relies on, regression-test anti-cycling on a degenerate (Beale)
   instance, and check that the warm work is observable in metrics and
   Solver.stats.  The repair-stack tests then pin the one re-solve path of
   the validation loop: card_minimal under pins, with the solve cache as
   the only answer reuse across calls. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_datagen
open Dart_rand
module Obs = Dart_obs.Obs

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Random repair-shaped MILP instances                                 *)
(* ------------------------------------------------------------------ *)

(* An instance mirrors the S*(AC) shape: cells z_i with original values
   v_i, a few ground rows over the z's, and |z_i - v_i| <= M*delta_i rows
   under a min-sum-delta objective.  The rhs of each ground row is its
   value at a perturbed integer point v+p (plus non-negative slack for
   inequality rows), so every instance is integer-feasible by
   construction with a repair of cardinality <= |p|: this keeps the
   branch-and-bound search shallow (integer-infeasible equality systems
   force an exhaustive sweep of the box before infeasibility is proved,
   which is exactly the regime property tests cannot afford). *)
type inst = {
  vals : int list;                    (* original cell values v_i *)
  pert : int list;                    (* repair target is v + p *)
  rows : (int list * int * int) list; (* per row: coeffs, op code, slack *)
}

let print_inst i =
  Printf.sprintf "{vals=[%s]; pert=[%s]; rows=[%s]}"
    (String.concat ";" (List.map string_of_int i.vals))
    (String.concat ";" (List.map string_of_int i.pert))
    (String.concat "; "
       (List.map
          (fun (cs, op, extra) ->
            Printf.sprintf "([%s],%s,%d)"
              (String.concat ";" (List.map string_of_int cs))
              (match op mod 3 with 0 -> "<=" | 1 -> ">=" | _ -> "=")
              extra)
          i.rows))

let gen_inst =
  QCheck.Gen.(
    let* n = int_range 2 4 in
    let* vals = list_repeat n (int_range (-9) 9) in
    let* pert = list_repeat n (int_range (-3) 3) in
    let* rows =
      list_size (int_range 1 3)
        (triple (list_repeat n (int_range (-2) 2)) (int_range 0 2)
           (int_range 0 3))
    in
    return { vals; pert; rows })

let shrink_inst i =
  QCheck.Iter.(
    QCheck.Shrink.(
      map (fun vals -> { i with vals }) (list ~shrink:int i.vals)
      <+> map (fun pert -> { i with pert }) (list ~shrink:int i.pert)
      <+> map
            (fun rows -> { i with rows })
            (list ~shrink:(triple (list ~shrink:int) int int) i.rows)))

let arb_inst = QCheck.make ~print:print_inst ~shrink:shrink_inst gen_inst

module Make_diff (F : Dart_lp.Field.S) = struct
  module M = Dart_lp.Milp.Make (F)
  module P = M.P
  module S = M.S

  (* Kept tight relative to the z boxes below: a loose M makes the LP
     relaxation's sum-of-deltas bound nearly vacuous and node counts blow
     up by orders of magnitude on equality-heavy instances. *)
  let big_m = 12

  (* Build the MILP for an instance.  delta_i is expressed directly on z_i
     (no explicit y variables): at any optimum delta_i = 1 iff z_i moved,
     so the objective value IS the repair cardinality. *)
  let build (i : inst) =
    let vals = if i.vals = [] then [ 0 ] else i.vals in
    let n = List.length vals in
    let vals = Array.of_list vals in
    let pert = Array.make n 0 in
    List.iteri (fun j x -> if j < n then pert.(j) <- x) i.pert;
    let pad coeffs =
      let a = Array.make n 0 in
      List.iteri (fun j c -> if j < n then a.(j) <- c) coeffs;
      if Array.for_all (fun c -> c = 0) a then a.(0) <- 1;
      a
    in
    let p = P.create () in
    let z =
      Array.init n (fun j ->
          P.add_var ~name:(Printf.sprintf "z%d" j)
            ~lower:(F.of_int (vals.(j) - big_m))
            ~upper:(F.of_int (vals.(j) + big_m))
            ~integer:true p)
    in
    let delta =
      Array.init n (fun j ->
          P.add_var ~name:(Printf.sprintf "d%d" j) ~lower:F.zero ~upper:F.one
            ~integer:true p)
    in
    List.iter
      (fun (coeffs, opcode, extra) ->
        let coeffs = pad coeffs in
        let at_target = ref 0 in
        Array.iteri
          (fun j c -> at_target := !at_target + (c * (vals.(j) + pert.(j))))
          coeffs;
        let op, rhs =
          match opcode mod 3 with
          | 0 -> (Dart_lp.Lp_problem.Le, !at_target + extra)
          | 1 -> (Dart_lp.Lp_problem.Ge, !at_target - extra)
          | _ -> (Dart_lp.Lp_problem.Eq, !at_target)
        in
        let terms = ref [] in
        Array.iteri
          (fun j c -> if c <> 0 then terms := (F.of_int c, z.(j)) :: !terms)
          coeffs;
        P.add_constraint ~label:"ground" p !terms op (F.of_int rhs))
      i.rows;
    for j = 0 to n - 1 do
      P.add_constraint ~label:"bigM+" p
        [ (F.one, z.(j)); (F.of_int (-big_m), delta.(j)) ]
        Dart_lp.Lp_problem.Le (F.of_int vals.(j));
      P.add_constraint ~label:"bigM-" p
        [ (F.neg F.one, z.(j)); (F.of_int (-big_m), delta.(j)) ]
        Dart_lp.Lp_problem.Le (F.of_int (-vals.(j)))
    done;
    P.set_objective ~minimize:true p
      (Array.to_list (Array.map (fun d -> (F.one, d)) delta));
    (p, z, vals)

  let cardinality (a : F.t array) z vals =
    let k = ref 0 in
    Array.iteri
      (fun j zj -> if not (F.equal a.(zj) (F.of_int vals.(j))) then incr k)
      z;
    !k

  (* Warm and cold B&B agree on status and objective, and a warm optimum's
     changed-cell count equals the objective (cardinality semantics).
     [integral_objective] matches how Solver always calls M.solve on
     sum-of-binaries objectives. *)
  let prop_differential i =
    let p, z, vals = build i in
    let warm = M.solve ~integral_objective:true ~warm:true p in
    let cold = M.solve ~integral_objective:true ~warm:false p in
    match warm.M.status, cold.M.status with
    | M.Optimal, M.Optimal -> (
      match warm.M.objective, cold.M.objective, warm.M.assignment with
      | Some a, Some b, Some assignment ->
        F.equal a b
        && F.equal a (F.of_int (cardinality assignment z vals))
      | _ -> false)
    | sa, sb -> sa = sb

  (* An operator accepting a suggestion: pin z_0 to the value an optimal
     solve chose (an equality row, as Encode.build emits pins) and re-solve
     from scratch.  The old optimum stays feasible and the feasible set
     only shrank, so all three solves must agree on the objective. *)
  let prop_pinned i =
    let p, z, _ = build i in
    let o0 = M.solve ~integral_objective:true p in
    match o0.M.status, o0.M.objective, o0.M.assignment with
    | M.Optimal, Some obj0, Some a ->
      P.add_constraint ~label:"pin" p [ (F.one, z.(0)) ] Dart_lp.Lp_problem.Eq
        a.(z.(0));
      let warm = M.solve ~integral_objective:true p in
      let cold = M.solve ~integral_objective:true ~warm:false p in
      warm.M.status = M.Optimal
      && cold.M.status = M.Optimal
      && (match warm.M.objective, cold.M.objective with
         | Some w, Some c -> F.equal w obj0 && F.equal c obj0
         | _ -> false)
    | _ -> true

  (* Satellite: simplex basis invariants.  Any optimal solve's snapshot is
     primal- and dual-feasible, and re-solving the same problem from its
     own snapshot is a zero-pivot warm no-op with the same objective. *)
  let prop_invariants i =
    let p, _, _ = build i in
    let w = S.solve_warm p in
    match w.S.result, w.S.snapshot with
    | S.Optimal { objective; _ }, Some snap ->
      S.snapshot_primal_feasible snap
      && S.snapshot_dual_feasible snap
      &&
      let w2 = S.solve_warm ~from:snap p in
      w2.S.warm_used
      && w2.S.stats.S.pivots = 0
      && (match w2.S.result with
         | S.Optimal { objective = o2; _ } -> F.equal o2 objective
         | _ -> false)
    | _ -> true

  let tests ~field =
    let q name count prop =
      Qcheck_util.to_alcotest
        (QCheck.Test.make ~long_factor:10 ~count
           ~name:(Printf.sprintf "%s (%s)" name field)
           arb_inst prop)
    in
    [ q "warm == cold B&B on random repair MILPs" 500 prop_differential;
      q "pinning an optimal value preserves the optimum" 500 prop_pinned;
      q "optimal bases are primal+dual feasible; self-warm-start is a no-op"
        500 prop_invariants ]
end

module Diff_rat = Make_diff (Dart_lp.Field_rat)
module Diff_float = Make_diff (Dart_lp.Field_float)

(* ------------------------------------------------------------------ *)
(* Anti-cycling regression (Beale's degenerate instance)                *)
(* ------------------------------------------------------------------ *)

module SR = Dart_lp.Simplex.Make (Dart_lp.Field_rat)
module PR = SR.P

(* Beale's classic cycling example: Dantzig's rule cycles forever at the
   degenerate origin; Bland's rule must terminate.  A pinned pivot budget
   keeps the regression sharp for both the cold path and the dual phase
   after an appended pin creates fresh degeneracy. *)
let beale () =
  let q n d = Rat.div (Rat.of_int n) (Rat.of_int d) in
  let p = PR.create () in
  let x1 = PR.add_var ~name:"x1" ~lower:Rat.zero p in
  let x2 = PR.add_var ~name:"x2" ~lower:Rat.zero p in
  let x3 = PR.add_var ~name:"x3" ~lower:Rat.zero p in
  let x4 = PR.add_var ~name:"x4" ~lower:Rat.zero p in
  PR.add_constraint p
    [ (q 1 4, x1); (q (-60) 1, x2); (q (-1) 25, x3); (q 9 1, x4) ]
    Dart_lp.Lp_problem.Le Rat.zero;
  PR.add_constraint p
    [ (q 1 2, x1); (q (-90) 1, x2); (q (-1) 50, x3); (q 3 1, x4) ]
    Dart_lp.Lp_problem.Le Rat.zero;
  PR.add_constraint p [ (q 1 1, x3) ] Dart_lp.Lp_problem.Le Rat.one;
  PR.set_objective ~minimize:true p
    [ (q (-3) 4, x1); (q 150 1, x2); (q (-1) 50, x3); (q 6 1, x4) ];
  (p, x1)

let pivot_budget = 64

let anticycling_tests =
  [ t "Beale's degenerate LP terminates within the pivot budget (cold)"
      (fun () ->
        let p, _ = beale () in
        let w = SR.solve_warm p in
        (match w.SR.result with
         | SR.Optimal { objective; _ } ->
           Alcotest.(check bool) "optimum -1/20" true
             (Rat.equal objective (Rat.div (Rat.of_int (-1)) (Rat.of_int 20)))
         | _ -> Alcotest.fail "expected optimal");
        Alcotest.(check bool)
          (Printf.sprintf "pivots %d <= %d" w.SR.stats.SR.pivots pivot_budget)
          true
          (w.SR.stats.SR.pivots <= pivot_budget));
    t "degeneracy after a pin: warm and cold both terminate within budget"
      (fun () ->
        let p, x1 = beale () in
        let w0 = SR.solve_warm p in
        let snap =
          match w0.SR.snapshot with
          | Some s -> s
          | None -> Alcotest.fail "expected a snapshot"
        in
        (* Pin x1 back to 0: the optimal vertex (x1 = 1/25) becomes
           infeasible and the dual phase must walk back through the
           degenerate origin. *)
        PR.add_constraint p [ (Rat.one, x1) ] Dart_lp.Lp_problem.Le Rat.zero;
        let warm = SR.solve_warm ~from:snap p in
        Alcotest.(check bool) "warm path used" true warm.SR.warm_used;
        Alcotest.(check bool)
          (Printf.sprintf "warm pivots %d <= %d" warm.SR.stats.SR.pivots
             pivot_budget)
          true
          (warm.SR.stats.SR.pivots <= pivot_budget);
        let cold = SR.solve_warm p in
        Alcotest.(check bool)
          (Printf.sprintf "cold pivots %d <= %d" cold.SR.stats.SR.pivots
             pivot_budget)
          true
          (cold.SR.stats.SR.pivots <= pivot_budget);
        match warm.SR.result, cold.SR.result with
        | SR.Optimal { objective = a; _ }, SR.Optimal { objective = b; _ } ->
          Alcotest.(check bool) "same objective" true (Rat.equal a b);
          (* The pin forces the degenerate origin, objective 0 apart from
             the x3 <= 1 row's freedom: x3 = 1 at optimum. *)
          Alcotest.(check bool) "objective -1/50" true
            (Rat.equal a (Rat.div (Rat.of_int (-1)) (Rat.of_int 50)))
        | _ -> Alcotest.fail "expected optimal on both paths");
    (* The random instances above are feasible by construction, so the
       dual phase's infeasibility certificate (Dual_infeasible_row) needs
       its own pin: contradictory appended pins must make the warm
       re-solve report Infeasible exactly like a cold solve. *)
    t "contradictory pins: warm restart certifies infeasibility" (fun () ->
        let p, x1 = beale () in
        let w0 = SR.solve_warm p in
        let snap =
          match w0.SR.snapshot with
          | Some s -> s
          | None -> Alcotest.fail "expected a snapshot"
        in
        PR.add_constraint p [ (Rat.one, x1) ] Dart_lp.Lp_problem.Ge Rat.one;
        PR.add_constraint p [ (Rat.one, x1) ] Dart_lp.Lp_problem.Le Rat.zero;
        let warm = SR.solve_warm ~from:snap p in
        Alcotest.(check bool) "warm path used" true warm.SR.warm_used;
        (match warm.SR.result with
         | SR.Infeasible -> ()
         | _ -> Alcotest.fail "warm restart must certify infeasibility");
        match (SR.solve_warm p).SR.result with
        | SR.Infeasible -> ()
        | _ -> Alcotest.fail "cold solve must agree: infeasible")
  ]

(* ------------------------------------------------------------------ *)
(* Repair-stack warm behaviour                                         *)
(* ------------------------------------------------------------------ *)

let find_cell db ~year ~sub =
  let tu =
    List.find
      (fun tu ->
        Tuple.value_by_name Cash_budget.relation_schema tu "Year" = Value.Int year
        && Tuple.value_by_name Cash_budget.relation_schema tu "Subsection"
           = Value.String sub)
      (Database.tuples_of db Cash_budget.relation_name)
  in
  Tuple.id tu

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

let status_name = function
  | Solver.Consistent -> "consistent"
  | Solver.Repaired _ -> "repaired"
  | Solver.No_repair _ -> "no_repair"
  | Solver.Node_budget_exceeded _ -> "node_budget_exceeded"
  | Solver.Cancelled _ -> "cancelled"

let with_cache f = Test_durable.with_cache 8 f

let repair_stack_tests =
  [ t "solve cache hits match cold solves across a growing pin sequence"
      (fun () ->
        let db = Cash_budget.figure3 () in
        let tcr = (find_cell db ~year:2003 ~sub:"total cash receipts", "Value") in
        let cs = (find_cell db ~year:2003 ~sub:"cash sales", "Value") in
        let pin_sets =
          [ []; [ (tcr, Rat.of_int 250) ];
            [ (cs, Rat.of_int 100); (tcr, Rat.of_int 250) ] ]
        in
        let solve forced = Solver.card_minimal ~forced db Cash_budget.constraints in
        let cold = List.map solve pin_sets in
        let hits =
          with_cache (fun () ->
              List.iter (fun forced -> ignore (solve forced)) pin_sets;
              List.map solve pin_sets)
        in
        List.iter2
          (fun cold hit ->
            Alcotest.(check string) "same status" (status_name cold)
              (status_name hit);
            match hit, cold with
            | Solver.Repaired (r1, p1, s), Solver.Repaired (r2, p2, _) ->
              Alcotest.(check bool) "same repair" true (r1 = r2);
              Alcotest.(check bool) "same provenance" true (p1 = p2);
              Alcotest.(check int) "a hit does zero branch & bound" 0
                s.Solver.nodes
            | _ -> ())
          cold hits);
    t "unchanged pins reuse the cached outcome (zero extra work)" (fun () ->
        with_cache @@ fun () ->
        let db = Cash_budget.figure3 () in
        (match Solver.card_minimal db Cash_budget.constraints with
         | Solver.Repaired (_, _, s) ->
           Alcotest.(check bool) "first call does work" true (s.Solver.nodes > 0)
         | _ -> Alcotest.fail "expected a repair");
        match Solver.card_minimal db Cash_budget.constraints with
        | Solver.Repaired (_, _, s) ->
          Alcotest.(check int) "cache hit: zero nodes" 0 s.Solver.nodes;
          Alcotest.(check int) "cache hit: zero pivots" 0 s.Solver.simplex_pivots
        | _ -> Alcotest.fail "expected a repair");
    t "repair.warm_fallbacks advances by stats.warm_fallbacks" (fun () ->
        List.iter
          (fun seed ->
            let prng = Prng.create seed in
            let truth = Cash_budget.generate ~years:3 prng in
            let corrupted, _ = Cash_budget.corrupt ~errors:3 prng truth in
            let before = counter_value "repair.warm_fallbacks" in
            match Solver.card_minimal corrupted Cash_budget.constraints with
            | Solver.Consistent ->
              Alcotest.(check int) "consistent: no solve" before
                (counter_value "repair.warm_fallbacks")
            | Solver.Repaired (_, _, stats)
            | Solver.No_repair stats
            | Solver.Node_budget_exceeded stats
            | Solver.Cancelled stats ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d: counter delta" seed)
                stats.Solver.warm_fallbacks
                (counter_value "repair.warm_fallbacks" - before))
          [ 3; 17; 29; 58; 91 ]);
    t "warm work is observable: metrics tick and stats surface it" (fun () ->
        let before_ws = counter_value "lp.simplex.warm_starts" in
        let before_dp = counter_value "lp.simplex.dual_pivots" in
        let db = Cash_budget.figure3 () in
        (match Solver.card_minimal db Cash_budget.constraints with
         | Solver.Repaired (_, _, stats) ->
           Alcotest.(check bool) "stats.warm_starts > 0" true
             (stats.Solver.warm_starts > 0);
           Alcotest.(check bool) "stats.dual_pivots > 0" true
             (stats.Solver.dual_pivots > 0);
           Alcotest.(check bool) "stats.warm_fallbacks >= 0" true
             (stats.Solver.warm_fallbacks >= 0)
         | _ -> Alcotest.fail "expected a repair");
        Alcotest.(check bool) "lp.simplex.warm_starts ticked" true
          (counter_value "lp.simplex.warm_starts" > before_ws);
        Alcotest.(check bool) "lp.simplex.dual_pivots ticked" true
          (counter_value "lp.simplex.dual_pivots" > before_dp));
    t "warm off: a cold Milp.solve reports zero warm work" (fun () ->
        let db = Cash_budget.figure3 () in
        let rows = Ground.of_constraints db Cash_budget.constraints in
        let enc = Encode.build db rows in
        let module M = Dart_lp.Milp.Make (Dart_lp.Field_rat) in
        let o =
          M.solve ~integral_objective:true ~warm:false enc.Encode.problem
        in
        Alcotest.(check bool) "optimal" true (o.M.status = M.Optimal);
        Alcotest.(check int) "no warm starts" 0 o.M.warm_starts;
        Alcotest.(check int) "no dual pivots" 0 o.M.dual_pivots);
    t "validation loop: cache on/off produce identical final databases"
      (fun () ->
        List.iter
          (fun seed ->
            let prng = Prng.create seed in
            let truth = Cash_budget.generate ~years:2 prng in
            let corrupted, _ = Cash_budget.corrupt ~errors:2 prng truth in
            let operator = Validation.oracle ~truth in
            let run () =
              Validation.run ~operator corrupted Cash_budget.constraints
            in
            let off = run () in
            let on = with_cache run in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: same convergence" seed)
              off.Validation.converged on.Validation.converged;
            Alcotest.(check int)
              (Printf.sprintf "seed %d: same iterations" seed)
              off.Validation.iterations on.Validation.iterations;
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: identical final databases" seed)
              true
              (Database.equal_contents on.Validation.final_db
                 off.Validation.final_db))
          [ 3; 17; 29; 58; 91 ])
  ]

let suite =
  Diff_rat.tests ~field:"rat"
  @ Diff_float.tests ~field:"float"
  @ anticycling_tests @ repair_stack_tests
