(* The sparse revised simplex, pinned by a dense-differential harness.

   The revised core (CSC columns + LU/eta basis factorization + devex
   pricing with a Bland fallback) is an optimization that must be
   semantically invisible: these tests compare its branch & bound and
   its warm restarts against the dense tableau oracle in [Lp_oracle] on
   random repair-shaped MILPs over both coefficient fields, regression-
   test anti-cycling (Beale + a degenerate transportation instance), pin
   the factorization's numerical-drift machinery (residual bounds,
   forced refactorization, exact-zero residual under rationals), and pin
   the encoder's O(nnz) row building on a 10k-cell document. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_repair
module Obs = Dart_obs.Obs
module Simplex = Dart_lp.Simplex

let t name f = Alcotest.test_case name `Quick f
let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

(* Pin a tuning knob for the duration of one test body. *)
let with_tuning ~set ~restore f =
  set ();
  Fun.protect ~finally:restore f

(* ------------------------------------------------------------------ *)
(* Random repair-shaped MILP instances (same family as test_warm)      *)
(* ------------------------------------------------------------------ *)

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
  module O = Lp_oracle.Make (F)

  let big_m = 12

  (* Build the MILP for an instance — delta_i directly on z_i, so the
     objective value IS the repair cardinality (see test_warm). *)
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

  (* Branch-and-bound on the revised core agrees with the dense oracle's
     search on status and objective, and its repair has the cardinality
     the objective claims. *)
  let prop_differential i =
    let p, z, vals = build i in
    let sparse = M.solve ~integral_objective:true p in
    match sparse.M.status, O.solve_milp ~integral_objective:true p with
    | M.Optimal, O.Optimal (b, _) -> (
      match sparse.M.objective, sparse.M.assignment with
      | Some a, Some assignment ->
        F.equal a b
        && F.equal a (F.of_int (cardinality assignment z vals))
      | _ -> false)
    | M.Infeasible, O.Infeasible | M.Unbounded, O.Unbounded -> true
    | _ -> false

  (* Warm-start cross-check on the LP relaxation: the revised core's cold
     solve matches the oracle, and after a pin its warm restart from the
     cold snapshot matches the oracle's cold solve of the pinned problem.
     The pin fixes z_0 at an optimal value, so the old optimum stays
     feasible and the objective must not move. *)
  let prop_warm_cross i =
    let p, z, _ = build i in
    let w = S.solve_warm p in
    match w.S.result, O.solve_lp p with
    | S.Optimal { objective = os; assignment }, O.Optimal (oo, ox) ->
      F.equal os oo && P.feasible p ox
      &&
      let v = assignment.(z.(0)) in
      P.add_constraint ~label:"pin" p [ (F.one, z.(0)) ] Dart_lp.Lp_problem.Le v;
      P.add_constraint ~label:"pin" p [ (F.one, z.(0)) ] Dart_lp.Lp_problem.Ge v;
      let w2 = S.solve_warm ?from:w.S.snapshot p in
      (match w2.S.result, O.solve_lp p with
       | S.Optimal { objective = a; _ }, O.Optimal (b, _) ->
         F.equal a os && F.equal b os
       | _ -> false)
    | S.Infeasible, O.Infeasible | S.Unbounded, O.Unbounded -> true
    | _ -> false

  (* Chained warm restarts — the B&B pattern: pin, warm-solve, pin
     deeper, warm-solve from the *warm* solve's snapshot.  The second
     generation must still take the warm path (`warm_used`), not fall
     back cold.  Regression: the sparse payload once recorded the
     extended form's layout instead of the original spec prefix, so
     every second-generation restart failed the layout check. *)
  let prop_warm_chain i =
    let p, z, _ = build i in
    let w0 = S.solve_warm p in
    match w0.S.result, w0.S.snapshot with
    | S.Optimal { objective = o0; assignment = a0 }, Some snap0 -> (
      let pin j v =
        P.add_constraint ~label:"pin" p [ (F.one, z.(j)) ]
          Dart_lp.Lp_problem.Le v;
        P.add_constraint ~label:"pin" p [ (F.one, z.(j)) ]
          Dart_lp.Lp_problem.Ge v
      in
      pin 0 a0.(z.(0));
      let w1 = S.solve_warm ~from:snap0 p in
      match w1.S.result, w1.S.snapshot with
      | S.Optimal { objective = o1; assignment = a1 }, Some snap1 ->
        w1.S.warm_used && F.equal o1 o0
        &&
        let j = Array.length z - 1 in
        pin j a1.(z.(j));
        let w2 = S.solve_warm ~from:snap1 p in
        w2.S.warm_used
        && (match w2.S.result with
           | S.Optimal { objective = o2; _ } -> F.equal o2 o0
           | _ -> false)
      | _ -> false)
    | _ -> true

  (* A sparse snapshot satisfies the shared basis invariants and
     self-warm-starting from it is a zero-pivot no-op, exactly like the
     dense contract in test_warm. *)
  let prop_sparse_self_warm i =
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
    [ q "sparse == dense B&B on random repair MILPs" 500 prop_differential;
      q "warm cross-check: sparse warm == dense oracle" 500
        prop_warm_cross;
      q "chained warm restarts stay on the warm path" 500 prop_warm_chain;
      q "sparse snapshots: invariants hold; self-warm-start is a no-op" 500
        prop_sparse_self_warm ]
end

module Diff_rat = Make_diff (Dart_lp.Field_rat)
module Diff_float = Make_diff (Dart_lp.Field_float)

(* ------------------------------------------------------------------ *)
(* Anti-cycling and degeneracy through the sparse path                 *)
(* ------------------------------------------------------------------ *)

module SR = Simplex.Make (Dart_lp.Field_rat)
module PR = SR.P

let q n d = Rat.div (Rat.of_int n) (Rat.of_int d)

(* Beale's classic cycling example (see test_warm). *)
let beale () =
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
  p

(* A balanced, totally degenerate 3x3 transportation problem: all
   supplies and demands are 1, so every basic feasible solution is
   degenerate (the classic stalling regime).  Diagonal shipping is free,
   everything else costs 1: the optimum is 0. *)
let transportation () =
  let p = PR.create () in
  let x = Array.init 3 (fun i ->
      Array.init 3 (fun j ->
          PR.add_var ~name:(Printf.sprintf "x%d%d" i j) ~lower:Rat.zero p))
  in
  for i = 0 to 2 do
    PR.add_constraint ~label:(Printf.sprintf "supply%d" i) p
      [ (Rat.one, x.(i).(0)); (Rat.one, x.(i).(1)); (Rat.one, x.(i).(2)) ]
      Dart_lp.Lp_problem.Eq Rat.one
  done;
  for j = 0 to 2 do
    PR.add_constraint ~label:(Printf.sprintf "demand%d" j) p
      [ (Rat.one, x.(0).(j)); (Rat.one, x.(1).(j)); (Rat.one, x.(2).(j)) ]
      Dart_lp.Lp_problem.Eq Rat.one
  done;
  let obj = ref [] in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then obj := (Rat.one, x.(i).(j)) :: !obj
    done
  done;
  PR.set_objective ~minimize:true p !obj;
  p

(* A benign non-degenerate textbook instance: max 3x+2y s.t. x+y<=4,
   x+3y<=6 — no degenerate pivot anywhere, so the Bland fallback must
   never engage. *)
let benign () =
  let p = PR.create () in
  let x = PR.add_var ~name:"x" ~lower:Rat.zero p in
  let y = PR.add_var ~name:"y" ~lower:Rat.zero p in
  PR.add_constraint p [ (Rat.one, x); (Rat.one, y) ] Dart_lp.Lp_problem.Le
    (Rat.of_int 4);
  PR.add_constraint p [ (Rat.one, x); (Rat.of_int 3, y) ] Dart_lp.Lp_problem.Le
    (Rat.of_int 6);
  PR.set_objective ~minimize:false p [ (Rat.of_int 3, x); (Rat.of_int 2, y) ];
  p

let pivot_budget = 64

let anticycling_tests =
  [ t "Beale through the sparse core: optimal within the pivot budget"
      (fun () ->
        let _, st = SR.solve_stats (beale ()) in
        ignore st;
        let result, st = SR.solve_stats (beale ()) in
        (match result with
         | SR.Optimal { objective; _ } ->
           Alcotest.(check bool) "optimum -1/20" true
             (Rat.equal objective (q (-1) 20))
         | _ -> Alcotest.fail "expected optimal");
        Alcotest.(check bool)
          (Printf.sprintf "pivots %d <= %d" st.SR.pivots pivot_budget)
          true
          (st.SR.pivots <= pivot_budget));
    t "degenerate transportation LP: sparse core within the pivot budget"
      (fun () ->
        let result, st = SR.solve_stats (transportation ()) in
        (match result with
         | SR.Optimal { objective; _ } ->
           Alcotest.(check bool) "optimum 0" true (Rat.is_zero objective)
         | _ -> Alcotest.fail "expected optimal");
        Alcotest.(check bool)
          (Printf.sprintf "pivots %d <= %d" st.SR.pivots pivot_budget)
          true
          (st.SR.pivots <= pivot_budget));
    t "crafted stall trips the devex->Bland fallback (counter ticks)"
      (fun () ->
        let before = counter_value "lp.simplex.bland_fallbacks" in
        let saved = Simplex.tuning.Simplex.stall_threshold in
        with_tuning
          ~set:(fun () -> Simplex.tuning.Simplex.stall_threshold <- 0)
          ~restore:(fun () -> Simplex.tuning.Simplex.stall_threshold <- saved)
          (fun () ->
            (* With a zero stall threshold the first degenerate pivot at
               Beale's origin flips the solve to Bland's rule. *)
            let result, st = SR.solve_stats (beale ()) in
            (match result with
             | SR.Optimal { objective; _ } ->
               Alcotest.(check bool) "still the optimum" true
                 (Rat.equal objective (q (-1) 20))
             | _ -> Alcotest.fail "expected optimal");
            Alcotest.(check bool) "stats.bland_fallbacks > 0" true
              (st.SR.bland_fallbacks > 0));
        Alcotest.(check bool) "lp.simplex.bland_fallbacks ticked" true
          (counter_value "lp.simplex.bland_fallbacks" > before));
    t "benign instance: the Bland fallback never engages" (fun () ->
        let result, st = SR.solve_stats (benign ()) in
        (match result with
         | SR.Optimal { objective; _ } ->
           Alcotest.(check bool) "optimum 12" true
             (Rat.equal objective (Rat.of_int 12))
         | _ -> Alcotest.fail "expected optimal");
        Alcotest.(check int) "no fallback" 0 st.SR.bland_fallbacks)
  ]

(* ------------------------------------------------------------------ *)
(* Factorization numerical robustness                                  *)
(* ------------------------------------------------------------------ *)

(* Drive an m x m basis through N product-form updates, recomputing
   x_B = B \ b after each, and report the worst residual seen. *)
module Make_lu_probe (F : Dart_lp.Field.S) = struct
  module Lu = Dart_lp.Basis_lu.Make (F)

  let run ~m ~updates =
    (* Columns 0..m-1: a diagonally dominant band matrix (the initial
       basis).  Columns m..2m-1: perturbed copies to pivot in. *)
    let n = 2 * m in
    let rows =
      Array.init m (fun i ->
          let base =
            [ (i, F.of_int 10); ((i + 1) mod m, F.of_int (1 + (i mod 3))) ]
          in
          let extra =
            [ (m + i, F.of_int 7); (m + ((i + 2) mod m), F.of_int (-2)) ]
          in
          base @ extra)
    in
    let a =
      Dart_lp.Sparse_mat.of_rows ~zero:F.zero ~is_zero:F.is_zero ~add:F.add ~m
        ~n rows
    in
    let b = Array.init m (fun i -> F.of_int ((3 * i) + 1)) in
    let basis = Array.init m (fun i -> i) in
    let lu = Lu.create () in
    Lu.factorize lu a ~basis;
    let xb = Array.make m F.zero in
    let solve_xb () =
      Array.blit b 0 xb 0 m;
      Lu.ftran lu xb
    in
    solve_xb ();
    let worst = ref (Lu.residual_inf a ~basis ~rhs:b ~xb) in
    let note r = if F.compare r !worst > 0 then worst := r in
    let spike = Array.make m F.zero in
    for k = 0 to updates - 1 do
      (* Swap slot r's basic column with its spare sibling (m+c <-> c). *)
      let r = k mod m in
      let entering =
        let cur = basis.(r) in
        if cur < m then m + cur else cur - m
      in
      Array.fill spike 0 m F.zero;
      Dart_lp.Sparse_mat.scatter_col a entering spike;
      Lu.ftran lu spike;
      if not (F.is_zero spike.(r)) then begin
        Lu.push_eta lu ~spike ~row:r;
        basis.(r) <- entering;
        solve_xb ();
        note (Lu.residual_inf a ~basis ~rhs:b ~xb)
      end
    done;
    (!worst, Lu.eta_count lu, Lu.update_count lu)
end

module Lu_float = Make_lu_probe (Dart_lp.Field_float)
module Lu_rat = Make_lu_probe (Dart_lp.Field_rat)

let robustness_tests =
  [ t "float: residual stays within tolerance across 48 eta updates"
      (fun () ->
        let worst, etas, ups = Lu_float.run ~m:12 ~updates:48 in
        Alcotest.(check bool) "updates happened" true (ups > 0);
        Alcotest.(check bool) "eta file grew" true (etas > 12);
        Alcotest.(check bool)
          (Printf.sprintf "worst residual %g <= 1e-6"
             (Dart_lp.Field_float.to_float worst))
          true
          (Dart_lp.Field_float.to_float worst <= 1e-6));
    t "rational: residual is exactly zero across 48 eta updates" (fun () ->
        let worst, _, ups = Lu_rat.run ~m:12 ~updates:48 in
        Alcotest.(check bool) "updates happened" true (ups > 0);
        Alcotest.(check bool) "exact zero residual" true
          (Rat.is_zero worst));
    t "exceeding the drift threshold forces refactorizations" (fun () ->
        let p () =
          let pr = PR.create () in
          let xs = Array.init 12 (fun i ->
              PR.add_var ~name:(Printf.sprintf "v%d" i) ~lower:Rat.zero pr)
          in
          for i = 0 to 10 do
            PR.add_constraint pr
              [ (Rat.one, xs.(i)); (Rat.of_int 2, xs.(i + 1)) ]
              Dart_lp.Lp_problem.Le (Rat.of_int (6 + i))
          done;
          PR.set_objective ~minimize:false pr
            (Array.to_list (Array.map (fun x -> (Rat.one, x)) xs));
          pr
        in
        let _, st_default = SR.solve_stats (p ()) in
        let before = counter_value "lp.simplex.refactorizations" in
        let saved_tol = Simplex.tuning.Simplex.drift_tol in
        let saved_every = Simplex.tuning.Simplex.drift_check_every in
        with_tuning
          ~set:(fun () ->
            (* A negative tolerance makes every drift check read the
               (always >= 0) residual as over threshold. *)
            Simplex.tuning.Simplex.drift_tol <- -1.0;
            Simplex.tuning.Simplex.drift_check_every <- 1)
          ~restore:(fun () ->
            Simplex.tuning.Simplex.drift_tol <- saved_tol;
            Simplex.tuning.Simplex.drift_check_every <- saved_every)
          (fun () ->
            let result, st_forced = SR.solve_stats (p ()) in
            (match result with
             | SR.Optimal _ -> ()
             | _ -> Alcotest.fail "expected optimal");
            Alcotest.(check bool)
              (Printf.sprintf "forced %d > default %d refactorizations"
                 st_forced.SR.refactorizations st_default.SR.refactorizations)
              true
              (st_forced.SR.refactorizations > st_default.SR.refactorizations));
        Alcotest.(check bool) "lp.simplex.refactorizations ticked" true
          (counter_value "lp.simplex.refactorizations" > before));
    t "sparse solves record factorization effort in stats" (fun () ->
        let _, st = SR.solve_stats (transportation ()) in
        Alcotest.(check bool) "refactorized at least once" true
          (st.SR.refactorizations >= 1);
        Alcotest.(check bool) "eta peak observed" true (st.SR.eta_peak > 0))
  ]

(* ------------------------------------------------------------------ *)
(* Encoder row building is O(nnz)                                      *)
(* ------------------------------------------------------------------ *)

(* A synthetic 10k-cell document: one relation, 10 000 measure cells,
   100 ground constraints of 100 cells each.  The encoder must stay
   O(total nnz) = O(10k terms): row building goes through the sparse
   builder (never a cells-wide dense array) and pin lookup through the
   stored cell index (never a linear scan). *)
let big_doc () =
  let schema =
    Schema.make
      [ Schema.make_relation "R" [| ("K", Value.Int_dom); ("N", Value.Int_dom) |] ]
      [ ("R", "N") ]
  in
  let db = ref (Database.create schema) in
  let cells =
    Array.init 10_000 (fun k ->
        let db', tu = Database.insert !db "R" [| Value.Int k; Value.Int (k mod 97) |] in
        db := db';
        ((Tuple.id tu, "N") : Ground.cell))
  in
  let rows =
    List.init 100 (fun r ->
        let terms =
          List.init 100 (fun j -> (Rat.one, cells.((r * 100) + j)))
        in
        let rhs =
          List.fold_left
            (fun acc (_, c) -> Rat.add acc (Ground.db_valuation !db c))
            Rat.zero terms
        in
        { Ground.origin = Printf.sprintf "block%d" r; terms;
          op = Agg_constraint.Eq; rhs })
  in
  (!db, cells, rows)

let encode_tests =
  [ t "encoding 10k cells / 100-cell rows allocates O(nnz), not O(cells^2)"
      (fun () ->
        let db, cells, rows = big_doc () in
        Gc.full_major ();
        let a0 = Gc.allocated_bytes () in
        let e = Encode.build db rows in
        let a1 = Gc.allocated_bytes () in
        Alcotest.(check int) "all cells encoded" 10_000 (Encode.num_cells e);
        (* O(cells^2) is >= 10k x 10k coefficient slots (hundreds of MB
           at any realistic word size); O(nnz) for 10k cells + 10k terms
           fits comfortably under 64 MB even with rationals and
           per-variable name strings. *)
        let mb = (a1 -. a0) /. (1024.0 *. 1024.0) in
        Alcotest.(check bool)
          (Printf.sprintf "allocated %.1f MB <= 64 MB" mb)
          true (mb <= 64.0);
        (* A pin on a known cell adds one equality row; a pin on a cell
           outside the system adds none. *)
        let pinned =
          Encode.build
            ~forced:[ (cells.(9_999), Rat.of_int 5); ((-1, "N"), Rat.of_int 5) ]
            db rows
        in
        Alcotest.(check int) "one operator row" (Encode.num_rows e + 1)
          (Encode.num_rows pinned));
    t "duplicate cells in one ground row combine into a single term"
      (fun () ->
        let schema =
          Schema.make
            [ Schema.make_relation "R"
                [| ("K", Value.Int_dom); ("N", Value.Int_dom) |] ]
            [ ("R", "N") ]
        in
        let db = Database.create schema in
        let db, tu = Database.insert db "R" [| Value.Int 0; Value.Int 3 |] in
        let cell = (Tuple.id tu, "N") in
        (* 2*z + 3*z = 10, i.e. 5*z = 10: one combined term. *)
        let row =
          { Ground.origin = "dup"; op = Agg_constraint.Eq;
            rhs = Rat.of_int 10;
            terms = [ (Rat.of_int 2, cell); (Rat.of_int 3, cell) ] }
        in
        let e = Encode.build db [ row ] in
        let c = (Encode.P.constraints e.Encode.problem).(0) in
        Alcotest.(check int) "one combined term" 1 (List.length c.terms);
        (match c.terms with
         | [ (coef, _) ] ->
           Alcotest.(check bool) "coefficient 5" true
             (Rat.equal coef (Rat.of_int 5))
         | _ -> ()))
  ]

let suite =
  Diff_rat.tests ~field:"rat"
  @ Diff_float.tests ~field:"float"
  @ anticycling_tests @ robustness_tests @ encode_tests
