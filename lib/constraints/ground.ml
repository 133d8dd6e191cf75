(** Grounding steady aggregate constraints into linear inequalities —
    the system S(AC) of paper §5.

    For every ground substitution θ making the body φ true, each
    application cᵢ·χᵢ(θXᵢ) is translated into cᵢ·P(χᵢ), where P(χᵢ) sums
    the z-variables of the measure cells of the involved tuples T_χᵢ (or a
    constant times |T_χᵢ| when the summed expression has no measure part).
    Constant contributions move to the right-hand side. *)

open Dart_numeric
open Dart_relational

type cell = Tuple.id * string
(** A repairable database cell ⟨tuple, measure attribute⟩. *)

type row = {
  origin : string;                (** constraint name + substitution, for display *)
  terms : (Rat.t * cell) list;    (** combined coefficients, no zero entries *)
  op : Agg_constraint.op;
  rhs : Rat.t;
}

let combine_terms terms =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (c, cell) ->
      match Hashtbl.find_opt tbl cell with
      | Some c0 -> Hashtbl.replace tbl cell (Rat.add c0 c)
      | None ->
        Hashtbl.add tbl cell c;
        order := cell :: !order)
    terms;
  List.filter_map
    (fun cell ->
      let c = Hashtbl.find tbl cell in
      if Rat.is_zero c then None else Some (c, cell))
    (List.rev !order)

let string_of_theta theta =
  "["
  ^ String.concat ","
      (Array.to_list
         (Array.map (function Some v -> Value.to_string v | None -> "_") theta))
  ^ "]"

let trivially_true r =
  r.terms = []
  && (let c = Rat.compare Rat.zero r.rhs in
      match r.op with Agg_constraint.Le -> c <= 0 | Ge -> c >= 0 | Eq -> c = 0)

(* The rows of one constraint, each χᵢ answered from its index in [idx]. *)
let rows idx (k : Agg_constraint.t) : row list =
  let schema = Database.schema (Aggregate.Indexes.db idx) in
  Steady.ensure schema k;
  (* Per application: its measure terms scaled by cᵢ, and the evaluator of
     the constant part of the summed expression. *)
  let apps =
    List.map
      (fun (app : Agg_constraint.application) ->
        let rel = app.fn.Aggregate.rel in
        let lin, const =
          Attr_expr.linearizer (Schema.relation schema rel)
            ~is_measure:(fun a -> Schema.is_measure schema ~rel ~attr:a)
            app.fn.Aggregate.expr
        in
        (app, List.map (fun (coef, attr) -> (Rat.mul app.coeff coef, attr)) lin, const))
      k.apps
  in
  List.filter (fun r -> not (trivially_true r))
  @@ List.map
    (fun theta ->
      let terms = ref [] and const = ref Rat.zero in
      List.iter
        (fun ((app : Agg_constraint.application), lin, c) ->
          let actuals = Agg_constraint.instantiate_actuals k theta app in
          List.iter
            (fun tu ->
              const := Rat.add !const (Rat.mul app.coeff (c tu));
              List.iter (fun (coef, attr) -> terms := (coef, (Tuple.id tu, attr)) :: !terms) lin)
            (Aggregate.Index.involved (Aggregate.Indexes.find idx app.fn) actuals))
        apps;
      { origin = k.name ^ " " ^ string_of_theta theta;
        terms = combine_terms (List.rev !terms);
        op = k.op;
        rhs = Rat.sub k.bound !const })
    (Agg_constraint.groundings (Aggregate.Indexes.db idx) k)

(** Ground one constraint.  @raise Steady.Not_steady if it is not steady
    (the translation is only sound for steady constraints — see §5). *)
let of_constraint db k = rows (Aggregate.Indexes.create db) k

(** Ground a whole constraint set: the full system S(AC), with one index
    per aggregation function shared across the constraints. *)
let of_constraints db ks =
  let idx = Aggregate.Indexes.create db in
  List.concat_map (rows idx) ks

(** Cells mentioned by a system, in first-appearance order: the repairable
    variables z₁…z_N of §5. *)
let cells rows =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (_, cell) ->
          if not (Hashtbl.mem seen cell) then begin
            Hashtbl.add seen cell ();
            order := cell :: !order
          end)
        r.terms)
    rows;
  List.rev !order

(** Evaluate a row under a cell valuation; true when satisfied. *)
let row_satisfied valuation row =
  let lhs =
    List.fold_left
      (fun acc (c, cell) -> Rat.add acc (Rat.mul c (valuation cell)))
      Rat.zero row.terms
  in
  let c = Rat.compare lhs row.rhs in
  match row.op with Le -> c <= 0 | Ge -> c >= 0 | Eq -> c = 0

(** Valuation reading current database values.
    @raise Not_found for a cell whose tuple no longer exists. *)
let db_valuation db (tid, attr) =
  let tu = Database.find db tid in
  let rs = Schema.relation (Database.schema db) (Tuple.relation tu) in
  Value.to_rat (Tuple.value_by_name rs tu attr)

let pp fmt row =
  let pp_terms fmt terms =
    let first = ref true in
    List.iter
      (fun (c, (tid, attr)) ->
        if !first then first := false else Format.pp_print_string fmt " + ";
        Format.fprintf fmt "%s*z(%d,%s)" (Rat.to_string c) tid attr)
      terms
  in
  Format.fprintf fmt "%a %s %s  ; %s" pp_terms row.terms
    (match row.op with Le -> "<=" | Ge -> ">=" | Eq -> "=")
    (Rat.to_string row.rhs) row.origin
