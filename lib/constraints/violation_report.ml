(** Human-readable inconsistency reports.

    The validation interface and the CLI's [check] command need to tell the
    operator {e what} is violated, not just that something is: for each
    violated ground constraint this module reports the instantiated
    substitution, the evaluated left-hand side and the bound it misses. *)

open Dart_numeric
open Dart_relational

type entry = {
  constraint_name : string;
  theta : Value.t option array;   (** the witnessing ground substitution *)
  lhs : Rat.t;                    (** evaluated Σ cᵢ·χᵢ(θXᵢ) *)
  op : Agg_constraint.op;
  bound : Rat.t;
}

let entry (k : Agg_constraint.t) (theta, lhs) =
  { constraint_name = k.name; theta; lhs; op = k.op; bound = k.bound }

(** All violated ground instances of a constraint set, each left-hand side
    taken from the detection pass that found it. *)
let of_constraints db ks : entry list =
  let idx = Aggregate.Indexes.create db in
  List.concat_map (fun k -> List.map (entry k) (Agg_constraint.violated idx k)) ks

let op_string = function
  | Agg_constraint.Le -> "<="
  | Agg_constraint.Ge -> ">="
  | Agg_constraint.Eq -> "="

let pp_entry fmt e =
  Format.fprintf fmt "%s%s: have %s, need %s %s" e.constraint_name
    (Ground.string_of_theta e.theta)
    (Rat.to_string e.lhs) (op_string e.op) (Rat.to_string e.bound)

let pp fmt entries =
  match entries with
  | [] -> Format.fprintf fmt "consistent"
  | _ ->
    Format.fprintf fmt "%d violated ground constraint(s):@." (List.length entries);
    List.iter (fun e -> Format.fprintf fmt "  %a@." pp_entry e) entries

(** Amount by which an equality/inequality is missed (always >= 0); useful
    for ranking violations by severity. *)
let discrepancy e =
  let diff = Rat.sub e.lhs e.bound in
  match e.op with
  | Agg_constraint.Eq -> Rat.abs diff
  | Agg_constraint.Le -> Rat.max Rat.zero diff
  | Agg_constraint.Ge -> Rat.max Rat.zero (Rat.neg diff)

(** Entries sorted most-severe first. *)
let by_severity entries =
  List.stable_sort (fun a b -> Rat.compare (discrepancy b) (discrepancy a)) entries
