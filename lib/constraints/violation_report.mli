(** Human-readable inconsistency reports for the operator and the CLI. *)

open Dart_numeric
open Dart_relational

type entry = {
  constraint_name : string;
  theta : Value.t option array;
  lhs : Rat.t;
  op : Agg_constraint.op;
  bound : Rat.t;
}

val of_constraints : Database.t -> Agg_constraint.t list -> entry list
(** All violated ground instances; empty = consistent. *)

val discrepancy : entry -> Rat.t
(** Non-negative miss amount, for severity ranking. *)

val by_severity : entry list -> entry list
(** Most severe first (stable). *)

val op_string : Agg_constraint.op -> string
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> entry list -> unit
