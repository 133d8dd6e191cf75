(* Tests for branch & bound MILP solving. *)

open Dart_lp

module Scenarios (F : Field.S) = struct
  module P = Lp_problem.Make (F)
  module M = Milp.Make (F)

  let fi = F.of_int

  let expect_obj name expected outcome =
    match outcome.M.objective with
    | Some obj -> Alcotest.(check int) (name ^ ": objective") 0 (F.compare obj expected)
    | None -> Alcotest.failf "%s: no solution (status not optimal)" name

  (* Classic knapsack-ish: max 5x + 4y st 6x + 4y <= 24, x + 2y <= 6, ints.
     LP opt is fractional (x=3, y=1.5); ILP opt is 21 at (3,1) or... check:
     x=3,y=1: 6*3+4=22<=24, 3+2=5<=6, obj 19. x=2,y=2: 12+8=20, 2+4=6, obj 18.
     x=4: 24<=24, y=0, 4<=6 obj 20. So opt 20 at (4,0). *)
  let int_knapsack () =
    let p = P.create () in
    let x = P.add_var ~name:"x" ~lower:F.zero ~integer:true p in
    let y = P.add_var ~name:"y" ~lower:F.zero ~integer:true p in
    P.add_constraint p [ (fi 6, x); (fi 4, y) ] Lp_problem.Le (fi 24);
    P.add_constraint p [ (F.one, x); (fi 2, y) ] Lp_problem.Le (fi 6);
    P.set_objective ~minimize:false p [ (fi 5, x); (fi 4, y) ];
    let outcome = M.solve ~integral_objective:true p in
    Alcotest.(check bool) "proved optimal" true (outcome.M.status = M.Optimal);
    expect_obj "knapsack" (fi 20) outcome

  (* Pure LP (no integer vars) must match the simplex. *)
  let pure_lp () =
    let p = P.create () in
    let x = P.add_var ~name:"x" ~lower:F.zero p in
    P.add_constraint p [ (F.one, x) ] Lp_problem.Le (fi 5);
    P.set_objective ~minimize:false p [ (F.one, x) ];
    expect_obj "pure lp" (fi 5) (M.solve p)

  (* Binary selection: min delta1 + delta2 st y = 3, y <= 10*delta1,
     deltas binary → delta1 = 1 forced. *)
  let binary_indicator () =
    let p = P.create () in
    let y = P.add_var ~name:"y" ~lower:F.zero p in
    let d1 = P.add_var ~name:"d1" ~lower:F.zero ~upper:F.one ~integer:true p in
    let d2 = P.add_var ~name:"d2" ~lower:F.zero ~upper:F.one ~integer:true p in
    P.add_constraint p [ (F.one, y) ] Lp_problem.Eq (fi 3);
    P.add_constraint p [ (F.one, y); (fi (-10), d1) ] Lp_problem.Le F.zero;
    P.set_objective p [ (F.one, d1); (F.one, d2) ];
    let outcome = M.solve ~integral_objective:true p in
    expect_obj "indicator" F.one outcome;
    match outcome.M.assignment with
    | Some a ->
      Alcotest.(check int) "d1 = 1" 0 (F.compare a.(d1) F.one);
      Alcotest.(check int) "d2 = 0" 0 (F.compare a.(d2) F.zero)
    | None -> Alcotest.fail "no assignment"

  (* Infeasible integrality: 2x = 3 with x integer. *)
  let infeasible_integrality () =
    let p = P.create () in
    let x = P.add_var ~name:"x" ~lower:(fi (-10)) ~upper:(fi 10) ~integer:true p in
    P.add_constraint p [ (fi 2, x) ] Lp_problem.Eq (fi 3);
    P.set_objective p [ (F.one, x) ];
    let outcome = M.solve p in
    Alcotest.(check bool) "infeasible" true (outcome.M.status = M.Infeasible)

  (* Negative-domain integer branching: min x st x >= -7/2, x integer → -3. *)
  let negative_branching () =
    let p = P.create () in
    let x = P.add_var ~name:"x" ~integer:true p in
    let half n = F.div (fi n) (fi 2) in
    P.add_constraint p [ (F.one, x) ] Lp_problem.Ge (half (-7));
    P.set_objective p [ (F.one, x) ];
    expect_obj "negative" (fi (-3)) (M.solve p)

  (* Equality over integers with several candidates: the optimum among
     integer points of x + 2y = 7, x,y >= 0 minimizing x is x=1,y=3. *)
  let diophantine_like () =
    let p = P.create () in
    let x = P.add_var ~name:"x" ~lower:F.zero ~integer:true p in
    let y = P.add_var ~name:"y" ~lower:F.zero ~integer:true p in
    P.add_constraint p [ (F.one, x); (fi 2, y) ] Lp_problem.Eq (fi 7);
    P.set_objective p [ (F.one, x) ];
    expect_obj "diophantine" F.one (M.solve p)

  (* Node limit truncation: a problem needing branching with max_nodes 1
     reports Feasible-or-Infeasible but never lies about optimality. *)
  let node_limit () =
    let p = P.create () in
    let x = P.add_var ~name:"x" ~lower:F.zero ~upper:(fi 10) ~integer:true p in
    let half n = F.div (fi n) (fi 2) in
    P.add_constraint p [ (fi 2, x) ] Lp_problem.Ge (fi 3);
    P.set_objective p [ (F.one, x) ];
    ignore half;
    let outcome = M.solve ~max_nodes:1 p in
    Alcotest.(check bool) "not proved optimal" true (outcome.M.status <> M.Optimal)

  let tests prefix =
    let t name f = Alcotest.test_case (prefix ^ ": " ^ name) `Quick f in
    [ t "integer knapsack" int_knapsack;
      t "pure LP" pure_lp;
      t "binary indicator" binary_indicator;
      t "infeasible integrality" infeasible_integrality;
      t "negative branching" negative_branching;
      t "diophantine-like" diophantine_like;
      t "node limit truncates" node_limit ]
end

module Rat_scenarios = Scenarios (Field_rat)
module Float_scenarios = Scenarios (Field_float)

(* Property: MILP objective for small knapsacks matches brute force. *)
module P = Lp_problem.Make (Field_rat)
module M = Milp.Make (Field_rat)

let gen_knapsack =
  QCheck.Gen.(
    let w = int_range 1 9 and v = int_range 1 9 in
    pair (list_size (return 4) (pair w v)) (int_range 5 25))

let knapsack_matches_bruteforce =
  Qcheck_util.to_alcotest
    (QCheck.Test.make ~long_factor:10 ~count:60 ~name:"0/1 knapsack MILP = brute force"
       (QCheck.make gen_knapsack)
       (fun (items, cap) ->
         let fi = Field_rat.of_int in
         let p = P.create () in
         let vars =
           List.map
             (fun _ -> P.add_var ~lower:Field_rat.zero ~upper:Field_rat.one ~integer:true p)
             items
         in
         P.add_constraint p
           (List.map2 (fun (w, _) v -> (fi w, v)) items vars)
           Lp_problem.Le (fi cap);
         P.set_objective ~minimize:false p
           (List.map2 (fun (_, value) v -> (fi value, v)) items vars);
         let outcome = M.solve ~integral_objective:true p in
         (* Brute force over all subsets. *)
         let n = List.length items in
         let arr = Array.of_list items in
         let best = ref 0 in
         for mask = 0 to (1 lsl n) - 1 do
           let w = ref 0 and v = ref 0 in
           for i = 0 to n - 1 do
             if mask land (1 lsl i) <> 0 then begin
               w := !w + fst arr.(i);
               v := !v + snd arr.(i)
             end
           done;
           if !w <= cap && !v > !best then best := !v
         done;
         match outcome.M.objective with
         | Some obj -> Field_rat.compare obj (fi !best) = 0
         | None -> false))

(* Observability cross-check: the "milp.node" event stream must agree with
   the outcome's own node accounting. *)
module Obs = Dart_obs.Obs

let node_events_match_outcome =
  Alcotest.test_case "milp.node events = nodes_explored" `Quick (fun () ->
      let fi = Field_rat.of_int in
      let p = P.create () in
      let x = P.add_var ~name:"x" ~lower:Field_rat.zero ~integer:true p in
      let y = P.add_var ~name:"y" ~lower:Field_rat.zero ~integer:true p in
      P.add_constraint p [ (fi 6, x); (fi 4, y) ] Lp_problem.Le (fi 24);
      P.add_constraint p [ (Field_rat.one, x); (fi 2, y) ] Lp_problem.Le (fi 6);
      P.set_objective ~minimize:false p [ (fi 5, x); (fi 4, y) ];
      let sink, events = Obs.memory_sink () in
      let saved_level = Obs.current_level () in
      Obs.install sink;
      Obs.set_level Obs.Debug;
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_level saved_level;
            Obs.uninstall sink)
          (fun () -> M.solve ~integral_objective:true p)
      in
      let node_events =
        List.length
          (List.filter
             (function Obs.Log { name = "milp.node"; _ } -> true | _ -> false)
             (events ()))
      in
      Alcotest.(check bool) "explored at least one node" true (outcome.M.nodes_explored > 0);
      Alcotest.(check int) "event count" outcome.M.nodes_explored node_events;
      Alcotest.(check bool) "pivots counted" true (outcome.M.simplex_pivots > 0))

(* Convergence observability: the gap timeline, root bound and phases
   carried on the outcome must be populated and consistent on a
   multi-node solve. *)
let convergence_observability =
  Alcotest.test_case "gap timeline and root bound populated on multi-node B&B"
    `Quick (fun () ->
      let fi = Field_rat.of_int in
      let p = P.create () in
      let x = P.add_var ~name:"x" ~lower:Field_rat.zero ~integer:true p in
      let y = P.add_var ~name:"y" ~lower:Field_rat.zero ~integer:true p in
      P.add_constraint p [ (fi 6, x); (fi 4, y) ] Lp_problem.Le (fi 24);
      P.add_constraint p [ (Field_rat.one, x); (fi 2, y) ] Lp_problem.Le (fi 6);
      P.set_objective ~minimize:false p [ (fi 5, x); (fi 4, y) ];
      let o = M.solve ~integral_objective:true p in
      Alcotest.(check bool) "multi-node" true (o.M.nodes_explored > 1);
      Alcotest.(check bool) "optimal" true (o.M.status = M.Optimal);
      (* Proved optimal => the reported final gap is exactly zero, and it
         is the last point of the timeline. *)
      (match o.M.final_gap with
       | Some g -> Alcotest.(check (float 0.0)) "final gap" 0.0 g
       | None -> Alcotest.fail "no final gap on an optimal solve");
      (match List.rev o.M.gap_timeline with
       | (_, last) :: _ -> Alcotest.(check (float 0.0)) "last point" 0.0 last
       | [] -> Alcotest.fail "empty gap timeline");
      Alcotest.(check bool) "root bound recorded" true (o.M.root_bound <> None);
      (* Phase attribution: a solve that pivots spends time somewhere. *)
      Alcotest.(check bool) "phases recorded" true
        (Obs.Phases.to_list o.M.phases <> []))

(* LP-format export sanity. *)
module Io = Lp_io.Make (Field_rat)

let lp_io_tests =
  let t name f = Alcotest.test_case name `Quick f in
  [ t "lp export contains all sections and variables" (fun () ->
        let p = P.create () in
        let x = P.add_var ~name:"x one" ~lower:Field_rat.zero p in
        let y = P.add_var ~name:"y" ~upper:(Field_rat.of_int 5) ~integer:true p in
        let z = P.add_var ~name:"z" p in
        P.add_constraint ~label:"row a" p
          [ (Field_rat.of_int 2, x); (Field_rat.of_int (-1), y) ]
          Lp_problem.Le (Field_rat.of_int 10);
        P.add_constraint p [ (Field_rat.of_int 1, z) ] Lp_problem.Eq (Field_rat.of_int 3);
        P.set_objective p [ (Field_rat.of_int 1, x); (Field_rat.of_int 1, y) ];
        let text = Io.to_string p in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains needle))
          [ "Minimize"; "Subject To"; "Bounds"; "General"; "End";
            "x_one" (* sanitized name *); "row_a"; "z free"; "-inf <= y <= 5" ]);
    t "lp export of empty objective renders a dummy term" (fun () ->
        let p = P.create () in
        let _ = P.add_var ~name:"x" ~lower:Field_rat.zero p in
        P.set_objective p [];
        let text = Io.to_string p in
        Alcotest.(check bool) "has obj line" true
          (String.length text > 0 && String.sub text 0 8 = "Minimize"));
  ]

let suite =
  Rat_scenarios.tests "rat" @ Float_scenarios.tests "float"
  @ [ knapsack_matches_bruteforce; node_events_match_outcome;
      convergence_observability ]
  @ lp_io_tests
