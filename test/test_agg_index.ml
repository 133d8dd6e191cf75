(* Differential tests of the hash-partitioned aggregate index against the
   scan-based oracle ([Scan_oracle]): detection, violation reports and
   the ground system must match it exactly, terms in order, on acquired
   scenario documents and on hand-built constraints whose WHERE clauses
   mix bucket keys, constant filters and residual conjuncts. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_datagen
open Dart_rand

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Comparable renderings                                               *)
(* ------------------------------------------------------------------ *)

(* Values print with their domain, so an Int/Real mix-up is a diff. *)
let show_value v = Value.domain_name (Value.domain_of v) ^ ":" ^ Value.to_string v

let show_theta theta =
  String.concat "," (Array.to_list (Array.map (function None -> "_" | Some v -> show_value v) theta))

let show_row (r : Ground.row) =
  Format.asprintf "%a" Ground.pp r

let show_entry (e : Violation_report.entry) =
  Printf.sprintf "%s[%s] lhs=%s" e.constraint_name (show_theta e.theta) (Rat.to_string e.lhs)

(* A result or the exception it raised, by kind. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument _ -> Error "Invalid_argument"
  | exception Steady.Not_steady _ -> Error "Not_steady"

(* Compared as rendered text, which shows the domain of every value. *)
let same what pp a b =
  let side = function
    | Ok l -> String.concat "\n    " (List.map pp l)
    | Error e -> "raised " ^ e
  in
  let a = side a and b = side b in
  if a <> b then
    QCheck.Test.fail_reportf "%s differ:\n  index:\n    %s\n  oracle:\n    %s" what a b

(* Every public evaluation entry point against the oracle, on one
   database and a constraint set sharing its aggregation functions. *)
let agrees db ks =
  List.iter
    (fun (k : Agg_constraint.t) ->
      same ("groundings of " ^ k.name) show_theta
        (outcome (fun () -> Agg_constraint.groundings db k))
        (outcome (fun () -> Scan_oracle.groundings db k));
      same ("violations of " ^ k.name) show_theta
        (outcome (fun () -> Agg_constraint.violations db k))
        (outcome (fun () -> Scan_oracle.violations db k));
      same ("holds " ^ k.name) string_of_bool
        (outcome (fun () -> [ Agg_constraint.holds db k ]))
        (outcome (fun () -> [ Scan_oracle.violations db k = [] ]));
      same ("rows of " ^ k.name) show_row
        (outcome (fun () -> Ground.of_constraint db k))
        (outcome (fun () -> Scan_oracle.ground db k));
      (* T_χ and χ for every application of every grounding. *)
      List.iter
        (fun theta ->
          List.iter
            (fun (app : Agg_constraint.application) ->
              match Agg_constraint.instantiate_actuals k theta app with
              | exception Invalid_argument _ -> ()
              | actuals ->
                same ("T_chi of " ^ app.fn.name) string_of_int
                  (outcome (fun () -> List.map Tuple.id (Aggregate.involved_tuples db app.fn actuals)))
                  (outcome (fun () -> List.map Tuple.id (Scan_oracle.involved_tuples db app.fn actuals)));
                same ("chi of " ^ app.fn.name) Rat.to_string
                  (outcome (fun () -> [ Aggregate.eval db app.fn actuals ]))
                  (outcome (fun () -> [ Scan_oracle.eval db app.fn actuals ])))
            k.apps)
        (Scan_oracle.groundings db k))
    ks;
  (* The shared-index entry points over the whole set. *)
  same "ground system" show_row
    (outcome (fun () -> Ground.of_constraints db ks))
    (outcome (fun () -> List.concat_map (Scan_oracle.ground db) ks));
  same "violation report" show_entry
    (outcome (fun () -> Violation_report.of_constraints db ks))
    (outcome (fun () ->
         List.concat_map
           (fun k ->
             List.map
               (fun theta ->
                 Violation_report.
                   { constraint_name = k.Agg_constraint.name; theta;
                     lhs = Scan_oracle.lhs_value db k theta; op = k.op; bound = k.bound })
               (Scan_oracle.violations db k))
           ks));
  same "holds_all" string_of_bool
    (outcome (fun () -> [ Agg_constraint.holds_all db ks ]))
    (outcome (fun () -> [ List.for_all (fun k -> Scan_oracle.violations db k = []) ks ]));
  true

(* ------------------------------------------------------------------ *)
(* Acquired scenario documents                                         *)
(* ------------------------------------------------------------------ *)

type kind = Cash_budget | Balance_sheet | Catalog | Quarterly

let kind_name = function
  | Cash_budget -> "cash-budget"
  | Balance_sheet -> "balance-sheet"
  | Catalog -> "catalog"
  | Quarterly -> "quarterly"

(* Generate, inject [errors] wrong numbers and render through the OCR
   noise channel: the document acquisition sees in production. *)
let document kind ~years ~errors seed =
  let prng = Prng.create seed in
  let truth, scenario =
    match kind with
    | Cash_budget -> (Cash_budget.generate ~years prng, Dart.Budget_scenario.scenario)
    | Balance_sheet -> (Balance_sheet.generate ~years prng, Dart.Balance_scenario.scenario)
    | Catalog -> (Catalog.generate prng, Dart.Catalog_scenario.scenario)
    | Quarterly -> (Quarterly.generate ~years prng, Dart.Quarterly_scenario.scenario)
  in
  let corrupt =
    match kind with
    | Cash_budget -> Cash_budget.corrupt
    | Balance_sheet -> Balance_sheet.corrupt
    | Catalog -> Catalog.corrupt
    | Quarterly -> Quarterly.corrupt
  in
  let bad, _ = corrupt ~errors prng truth in
  let channel = Dart_ocr.Noise.default_channel in
  let html =
    match kind with
    | Cash_budget -> fst (Doc_render.cash_budget_html ~channel ~prng bad)
    | Balance_sheet -> fst (Balance_sheet.to_html ~channel ~prng bad)
    | Catalog -> Catalog.to_html ~channel ~prng bad
    | Quarterly -> Quarterly.to_html ~channel ~prng bad
  in
  (html, scenario)

(* ... and acquired: the database detection sees in production. *)
let acquired kind ~years ~errors seed =
  let html, scenario = document kind ~years ~errors seed in
  ((Dart.Pipeline.acquire scenario html).Dart.Pipeline.db, scenario)

let scenario_arb =
  QCheck.make
    ~print:(fun (kind, years, errors, seed) ->
      Printf.sprintf "%s years=%d errors=%d seed=%d" (kind_name kind) years errors seed)
    QCheck.Gen.(
      quad (oneofl [ Cash_budget; Balance_sheet; Catalog; Quarterly ]) (int_range 1 4)
        (int_range 0 3) (int_bound 1_000_000))

let scenario_property =
  QCheck.Test.make ~count:40 ~long_factor:10 ~name:"index = scan on noisy scenario documents"
    scenario_arb (fun (kind, years, errors, seed) ->
      let db, scenario = acquired kind ~years ~errors seed in
      let ks = scenario.Dart.Scenario.constraints in
      ignore (agrees db ks);
      (* Detection as the pipeline runs it. *)
      same "pipeline detect" (fun (k, thetas) ->
          k.Agg_constraint.name ^ " " ^ String.concat " " (List.map show_theta thetas))
        (Ok (Dart.Pipeline.detect scenario db))
        (Ok
           (List.filter_map
              (fun k -> match Scan_oracle.violations db k with [] -> None | v -> Some (k, v))
              ks));
      true)

(* ------------------------------------------------------------------ *)
(* Hand-built constraints                                              *)
(* ------------------------------------------------------------------ *)

(* R(K:Z, L:R, Name:S, N:Z, V:Z) with measure V, and S(A:Z, B:R, C:S).
   K and A are integers, L and B reals over the same small numbers, so
   joins and keys meet Int and Real values that compare equal. *)
let r_rel =
  Schema.make_relation "R"
    [| ("K", Value.Int_dom); ("L", Value.Real_dom); ("Name", Value.String_dom);
       ("N", Value.Int_dom); ("V", Value.Int_dom) |]

let s_rel =
  Schema.make_relation "S"
    [| ("A", Value.Int_dom); ("B", Value.Real_dom); ("C", Value.String_dom) |]

let schema = Schema.make [ r_rel; s_rel ] [ ("R", "V") ]

let real n d = Value.Real (Rat.of_ints n d)

open QCheck.Gen

let int_v = map (fun n -> Value.Int n) (int_range 0 3)
let real_v = oneofl [ real 0 1; real 1 2; real 1 1; real 2 1; real 3 1 ]
let name_v = oneofl [ Value.String "a"; Value.String "b"; Value.String "c" ]
let const_v = oneofl [ Value.Int 0; Value.Int 2; real 2 1; real 1 2; Value.String "a"; Value.String "b" ]

let gen_db =
  let r_row = map (fun (k, l, name, (n, v)) -> [| k; l; name; Value.Int n; Value.Int v |])
      (quad int_v real_v name_v (pair (int_range (-2) 2) (int_range (-5) 5))) in
  let s_row = map (fun (a, b, c) -> [| a; b; c |]) (triple int_v real_v name_v) in
  map
    (fun (rs, ss) ->
      let db = List.fold_left (fun db row -> Database.insert_row db "R" row) (Database.create schema) rs in
      List.fold_left (fun db row -> Database.insert_row db "S" row) db ss)
    (pair (list_size (int_bound 10) r_row) (list_size (int_bound 6) s_row))

(* WHERE clauses over three formals: bucket keys ([Attr = Param], either
   side), constant filters ([Attr = Const], either side) and residuals
   ([Neq]/[Lt]/…, [Or], [Not], [Attr = Attr], [Param = Const]). *)
let gen_where =
  let attr = oneofl [ "K"; "L"; "Name"; "N" ] and param = int_bound 2 in
  let term =
    frequency
      [ (2, map (fun a -> Formula.Attr a) attr); (1, map (fun i -> Formula.Param i) param);
        (1, map (fun v -> Formula.Const v) const_v) ]
  in
  let atom =
    frequency
      [ (4, map2 (fun a i -> Formula.Cmp (Attr a, Eq, Param i)) attr param);
        (2, map2 (fun a i -> Formula.Cmp (Param i, Eq, Attr a)) attr param);
        (2, map2 (fun a v -> Formula.Cmp (Attr a, Eq, Const v)) attr const_v);
        (1, map2 (fun a v -> Formula.Cmp (Const v, Eq, Attr a)) attr const_v);
        (3, map3 (fun a op b -> Formula.Cmp (a, op, b)) term
              (oneofl Formula.[ Eq; Neq; Lt; Le; Gt; Ge ]) term);
        (1, return Formula.True) ]
  in
  let clause =
    fix
      (fun self depth ->
        if depth = 0 then atom
        else
          frequency
            [ (4, atom); (1, map2 (fun f g -> Formula.Or (f, g)) (self (depth - 1)) (self (depth - 1)));
              (1, map (fun f -> Formula.Not f) (self (depth - 1)));
              (1, map2 (fun f g -> Formula.And (f, g)) (self (depth - 1)) (self (depth - 1))) ])
      2
  in
  map Formula.conj (list_size (int_bound 4) clause)

let gen_expr =
  oneofl
    Attr_expr.
      [ Attr "V"; Add (Attr "V", Scale (Rat.of_int 2, Attr "N")); Sub (const_int 3, Attr "V");
        Attr "L"; Add (Attr "V", Attr "V") ]

let gen_aggregate i =
  map2 (fun where expr -> Aggregate.make ~name:(Printf.sprintf "f%d" i) ~rel:"R" ~arity:3 ~expr ~where)
    gen_where gen_expr

(* Bodies binding the three variables in different ways: all from S, a
   join of S with R on K=A and Name=C (x1 from the real L), constants in
   the body, variables left unbound, and the empty body. *)
let bodies =
  let atom rel args = { Agg_constraint.rel; args } in
  Agg_constraint.
    [ [ atom "S" [| Var 0; Var 1; Var 2 |] ];
      [ atom "S" [| Var 0; Anon; Var 2 |]; atom "R" [| Var 0; Var 1; Var 2; Anon; Anon |] ];
      [ atom "S" [| Var 0; Var 1; Cst (Value.String "a") |] ];
      [ atom "R" [| Anon; Var 1; Anon; Var 0; Anon |] ];
      [ atom "S" [| Var 2; Var 1; Anon |]; atom "S" [| Var 0; Var 1; Anon |] ];
      [] ]

let gen_constraint fns i =
  let actual =
    frequency [ (3, map (fun x -> Agg_constraint.AVar x) (int_bound 2)); (1, map (fun v -> Agg_constraint.ACst v) const_v) ]
  in
  let app =
    map3
      (fun coeff fn actuals -> { Agg_constraint.coeff; fn; actuals = Array.of_list actuals })
      (oneofl [ Rat.one; Rat.minus_one; Rat.of_int 2; Rat.of_ints 1 2 ])
      (oneofl fns) (list_repeat 3 actual)
  in
  map
    (fun (body, apps, op, bound) ->
      Agg_constraint.make ~name:(Printf.sprintf "k%d" i) ~nvars:3 ~body ~apps ~op
        ~bound:(Rat.of_int bound))
    (quad (oneofl bodies) (list_size (int_range 1 3) app)
       (oneofl Agg_constraint.[ Le; Ge; Eq ]) (int_range (-3) 3))

(* A database plus one to three constraints drawing on two shared
   aggregation functions. *)
let gen_case =
  gen_db >>= fun db ->
  pair (gen_aggregate 0) (gen_aggregate 1) >>= fun (f0, f1) ->
  int_range 1 3 >>= fun n ->
  map (fun ks -> (db, ks)) (flatten_l (List.init n (gen_constraint [ f0; f1 ])))

let print_case (db, ks) =
  let fns =
    List.sort_uniq compare
      (List.concat_map
         (fun (k : Agg_constraint.t) ->
           List.map (fun (a : Agg_constraint.application) -> Format.asprintf "%a" Aggregate.pp a.fn) k.apps)
         ks)
  in
  Format.asprintf "%a%s\n%s" Database.pp db (String.concat "\n" fns)
    (String.concat "\n" (List.map (Format.asprintf "%a" Agg_constraint.pp) ks))

let constraint_property =
  QCheck.Test.make ~count:400 ~long_factor:10 ~name:"index = scan on hand-built constraints"
    (QCheck.make ~print:print_case gen_case) (fun (db, ks) -> agrees db ks)

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let rows_r = [ [| Value.Int 3; real 2 1; Value.String "a"; Value.Int 0; Value.Int 5 |];
               [| Value.Int 1; real 1 2; Value.String "b"; Value.Int 0; Value.Int 7 |];
               [| Value.Int 3; real 3 1; Value.String "b"; Value.Int 1; Value.Int 11 |] ]

let db_of ?(r = rows_r) s =
  let db = List.fold_left (fun db row -> Database.insert_row db "R" row) (Database.create schema) r in
  List.fold_left (fun db row -> Database.insert_row db "S" row) db s

let by_param attr = Aggregate.make ~name:("by_" ^ attr) ~rel:"R" ~arity:1 ~expr:(Attr_expr.Attr "V")
    ~where:(Formula.attr_eq_param attr 0)

let ids db fn actuals = List.map Tuple.id (Aggregate.involved_tuples db fn actuals)

let edge_tests =
  [ t "Int and Real keys that compare equal share a bucket" (fun () ->
        let db = db_of [] in
        Alcotest.(check (list int)) "K = Real 3" [ 0; 2 ] (ids db (by_param "K") [| real 3 1 |]);
        Alcotest.(check (list int)) "K = Int 3" [ 0; 2 ] (ids db (by_param "K") [| Value.Int 3 |]);
        Alcotest.(check (list int)) "L = Int 2" [ 0 ] (ids db (by_param "L") [| Value.Int 2 |]);
        Alcotest.(check (list int)) "L = 1/2" [ 1 ] (ids db (by_param "L") [| real 1 2 |]);
        Alcotest.(check (list int)) "K = String 3" [] (ids db (by_param "K") [| Value.String "3" |]));
    t "a real body variable keys an integer column" (fun () ->
        (* x0 ranges over S.B (reals); the aggregate keys on R.K (ints). *)
        let db = db_of [ [| Value.Int 0; real 3 1; Value.String "a" |]; [| Value.Int 0; real 1 2; Value.String "a" |] ] in
        let k =
          Agg_constraint.make ~name:"k" ~nvars:1
            ~body:[ { Agg_constraint.rel = "S"; args = [| Anon; Var 0; Anon |] } ]
            ~apps:[ { Agg_constraint.coeff = Rat.one; fn = by_param "K"; actuals = [| AVar 0 |] } ]
            ~op:Agg_constraint.Le ~bound:Rat.zero
        in
        Alcotest.(check (list string)) "only x0 = 3 sums 5 + 11" [ "R:3" ]
          (List.map show_theta (Agg_constraint.violations db k));
        Alcotest.(check (list string)) "report lhs" [ "k[R:3] lhs=16" ]
          (List.map show_entry (Violation_report.of_constraints db [ k ]));
        ignore (agrees db [ k ]));
    t "a clause with no equality conjunct is one bucket" (fun () ->
        let fn =
          Aggregate.make ~name:"lt" ~rel:"R" ~arity:1 ~expr:(Attr_expr.Attr "V")
            ~where:Formula.(Or (Cmp (Attr "N", Lt, Param 0), Not (Cmp (Attr "Name", Neq, Const (Value.String "b")))))
        in
        let db = db_of [] in
        Alcotest.(check (list int)) "N < 1 or Name = b" [ 0; 1; 2 ] (ids db fn [| Value.Int 1 |]);
        Alcotest.(check (list int)) "N < 0 or Name = b" [ 1; 2 ] (ids db fn [| Value.Int 0 |]);
        Alcotest.(check string) "sum" "18" (Rat.to_string (Aggregate.eval db fn [| Value.Int 0 |])));
    t "constant filters apply on either side" (fun () ->
        let fn =
          Aggregate.make ~name:"c" ~rel:"R" ~arity:1 ~expr:(Attr_expr.Attr "V")
            ~where:Formula.(conj [ Cmp (Const (Value.String "b"), Eq, Attr "Name"); Cmp (Attr "K", Eq, Param 0) ])
        in
        let db = db_of [] in
        Alcotest.(check (list int)) "K = 3, Name = b" [ 2 ] (ids db fn [| Value.Int 3 |]);
        Alcotest.(check (list int)) "K = 1, Name = b" [ 1 ] (ids db fn [| real 1 1 |]));
    t "an empty relation involves no tuples" (fun () ->
        let db = db_of ~r:[] [] in
        Alcotest.(check (list int)) "none" [] (ids db (by_param "K") [| Value.Int 3 |]);
        Alcotest.(check string) "sum 0" "0" (Rat.to_string (Aggregate.eval db (by_param "K") [| Value.Int 3 |]));
        (* No body: one grounding, whose sum over the empty relation misses 1. *)
        let k =
          Agg_constraint.make ~name:"k" ~nvars:0 ~body:[]
            ~apps:[ { Agg_constraint.coeff = Rat.one; fn = by_param "K"; actuals = [| ACst (Value.Int 3) |] } ]
            ~op:Agg_constraint.Ge ~bound:Rat.one
        in
        Alcotest.(check (list string)) "violated once" [ "k[] lhs=0" ]
          (List.map show_entry (Violation_report.of_constraints db [ k ]));
        Alcotest.(check int) "one constant row" 1 (List.length (Ground.of_constraint db k));
        ignore (agrees db [ k ]));
    t "an unbound parameter raises Invalid_argument" (fun () ->
        (* x1 appears in an aggregation but not in the body. *)
        let db = db_of [ [| Value.Int 3; real 2 1; Value.String "a" |] ] in
        let k =
          Agg_constraint.make ~name:"k" ~nvars:2
            ~body:[ { Agg_constraint.rel = "S"; args = [| Var 0; Anon; Anon |] } ]
            ~apps:[ { Agg_constraint.coeff = Rat.one; fn = by_param "K"; actuals = [| AVar 1 |] } ]
            ~op:Agg_constraint.Eq ~bound:Rat.zero
        in
        let raises name f =
          Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
        in
        raises "violations" (fun () -> Agg_constraint.violations db k);
        raises "holds" (fun () -> Agg_constraint.holds db k);
        raises "report" (fun () -> Violation_report.of_constraints db [ k ]);
        raises "ground" (fun () -> Ground.of_constraint db k);
        raises "oracle" (fun () -> Scan_oracle.violations db k));
  ]

let suite =
  edge_tests
  @ List.map Qcheck_util.to_alcotest [ scenario_property; constraint_property ]
