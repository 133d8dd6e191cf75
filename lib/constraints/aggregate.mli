(** Aggregation functions (paper §3.1):

    χ(x₁, …, xₖ) = SELECT sum(e) FROM R WHERE α(x₁, …, xₖ)

    [Param i] inside [where] refers to the i-th formal parameter;
    constraints instantiate the formals with variables or constants. *)

open Dart_numeric
open Dart_relational

type t = {
  name : string;
  rel : string;
  expr : Attr_expr.t;
  arity : int;
  where : Formula.t;
}

val make :
  name:string -> rel:string -> arity:int -> expr:Attr_expr.t -> where:Formula.t -> t
(** @raise Invalid_argument if [where] references a parameter ≥ [arity]. *)

(** The hash partition of one aggregation function's relation: built in
    one pass over R, it answers T_χ for any actual parameters in
    O(|T_χ|).  Each bucket keeps R's insertion order, so answers list
    tuples exactly as a scan of R would. *)
module Index : sig
  type aggregate := t
  type t

  val build : Database.t -> aggregate -> t
  (** Split the WHERE clause into [Attr = Param i] conjuncts (the bucket
      key, normalised by {!Value.key}), [Attr = Const] conjuncts (applied
      while bucketing) and a residual checked per candidate tuple.
      @raise Not_found if the clause or the summed expression names an
      attribute the relation lacks. *)

  val involved : t -> Value.t array -> Tuple.t list
  (** T_χ under given actual parameters, in insertion order.
      @raise Invalid_argument on arity mismatch. *)

  val sum : t -> Value.t array -> Rat.t
  (** The aggregation sum over {!involved}. *)
end

(** One database's indexes, each built on first use: the evaluation
    context detection, grounding and reports share within one call, so
    every aggregation function is partitioned once however many
    constraints and groundings apply it. *)
module Indexes : sig
  type aggregate := t
  type t

  val create : Database.t -> t
  val db : t -> Database.t

  val find : t -> aggregate -> Index.t
  (** The index of an aggregation function (by physical identity). *)
end

val involved_tuples : Database.t -> t -> Value.t array -> Tuple.t list
(** The paper's T_χ under given actual parameters: {!Index.involved} on a
    fresh index.
    @raise Invalid_argument on arity mismatch. *)

val eval : Database.t -> t -> Value.t array -> Rat.t
(** The aggregation sum on the current database state. *)

val where_attrs : t -> (string * string) list
(** Attributes named in the WHERE clause, tagged with the relation. *)

val where_params : t -> int list
(** Formal parameter positions the WHERE clause references (sorted,
    deduplicated). *)

val pp : Format.formatter -> t -> unit
