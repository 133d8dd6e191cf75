(* Scan-based constraint evaluation, kept as a differential oracle for the
   hash-partitioned aggregate index in [Aggregate.Index].

   This is how constraints were evaluated before the index: every
   application χᵢ(θXᵢ) of every grounding θ rescans the aggregated
   relation and evaluates the whole WHERE clause on each tuple, looking
   attributes up by name; groundings deduplicate substitutions on the
   printed values.  Slow, O(|θ|·k·|T|), and obviously right. *)

open Dart_numeric
open Dart_relational
open Dart_constraints

(* The WHERE clause on one tuple, attributes looked up by name. *)
let rec formula_holds rs (env : Value.t option array) tu = function
  | Formula.True -> true
  | Cmp (a, op, b) ->
    let term = function
      | Formula.Attr name -> Tuple.value_by_name rs tu name
      | Const v -> v
      | Param i ->
        (match env.(i) with
         | Some v -> v
         | None -> invalid_arg (Printf.sprintf "Formula.eval: unbound parameter x%d" i))
    in
    let c = Value.compare (term a) (term b) in
    (match op with
     | Eq -> c = 0 | Neq -> c <> 0 | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0)
  | And (f, g) -> formula_holds rs env tu f && formula_holds rs env tu g
  | Or (f, g) -> formula_holds rs env tu f || formula_holds rs env tu g
  | Not f -> not (formula_holds rs env tu f)

let involved_tuples db (fn : Aggregate.t) (actuals : Value.t array) =
  if Array.length actuals <> fn.arity then
    invalid_arg (Printf.sprintf "Aggregate.involved_tuples %s: arity mismatch" fn.name);
  let env = Array.map (fun v -> Some v) actuals in
  let rs = Schema.relation (Database.schema db) fn.rel in
  List.filter (fun tu -> formula_holds rs env tu fn.where) (Database.tuples_of db fn.rel)

let eval db (fn : Aggregate.t) actuals =
  let rs = Schema.relation (Database.schema db) fn.rel in
  List.fold_left
    (fun acc tu -> Rat.add acc (Attr_expr.eval rs tu fn.expr))
    Rat.zero (involved_tuples db fn actuals)

let groundings db (k : Agg_constraint.t) =
  let results = Hashtbl.create 16 in
  let order = ref [] in
  let rec match_atoms env = function
    | [] ->
      let key = Array.to_list (Array.map (Option.map Value.to_string) env) in
      if not (Hashtbl.mem results key) then begin
        Hashtbl.add results key ();
        order := Array.copy env :: !order
      end
    | (atom : Agg_constraint.atom) :: rest ->
      List.iter
        (fun tu ->
          let bound = ref [] in
          let rec go i =
            i >= Array.length atom.args
            ||
            let v = Tuple.value tu i in
            match atom.args.(i) with
            | Agg_constraint.Anon -> go (i + 1)
            | Cst c -> Value.equal c v && go (i + 1)
            | Var x ->
              (match env.(x) with
               | Some b -> Value.equal b v && go (i + 1)
               | None ->
                 env.(x) <- Some v;
                 bound := x :: !bound;
                 go (i + 1))
          in
          if go 0 then match_atoms env rest;
          List.iter (fun x -> env.(x) <- None) !bound)
        (Database.tuples_of db atom.rel)
  in
  match_atoms (Array.make k.nvars None) k.body;
  List.rev !order

let lhs_value db (k : Agg_constraint.t) theta =
  List.fold_left
    (fun acc (app : Agg_constraint.application) ->
      let actuals = Agg_constraint.instantiate_actuals k theta app in
      Rat.add acc (Rat.mul app.coeff (eval db app.fn actuals)))
    Rat.zero k.apps

let violations db (k : Agg_constraint.t) =
  List.filter
    (fun theta -> not (Agg_constraint.eval_op k.op (Rat.compare (lhs_value db k theta) k.bound)))
    (groundings db k)

let ground db (k : Agg_constraint.t) : Ground.row list =
  let schema = Database.schema db in
  Steady.ensure schema k;
  List.filter (fun r -> not (Ground.trivially_true r))
  @@ List.map
    (fun theta ->
      let terms = ref [] and const = ref Rat.zero in
      List.iter
        (fun (app : Agg_constraint.application) ->
          let actuals = Agg_constraint.instantiate_actuals k theta app in
          let rel = app.fn.Aggregate.rel in
          let rs = Schema.relation schema rel in
          let is_measure a = Schema.is_measure schema ~rel ~attr:a in
          List.iter
            (fun tu ->
              let lin, c = Attr_expr.linearize rs ~is_measure tu app.fn.Aggregate.expr in
              const := Rat.add !const (Rat.mul app.coeff c);
              List.iter
                (fun (coef, attr) ->
                  terms := (Rat.mul app.coeff coef, (Tuple.id tu, attr)) :: !terms)
                lin)
            (involved_tuples db app.fn actuals))
        k.apps;
      { Ground.origin = k.name ^ " " ^ Ground.string_of_theta theta;
        terms = Ground.combine_terms (List.rev !terms);
        op = k.op;
        rhs = Rat.sub k.bound !const })
    (groundings db k)
