(** Attribute expressions on a relation (paper §3.1): constants, attributes,
    sums/differences, and scaling by a constant.  Per tuple, an attribute
    expression is affine in the tuple's measure attributes — the property
    that lets steady constraints become linear inequalities. *)

open Dart_numeric
open Dart_relational

type t =
  | Const of Rat.t
  | Attr of string
  | Add of t * t
  | Sub of t * t
  | Scale of Rat.t * t

val const_int : int -> t

val attrs : t -> string list
(** Referenced attribute names (with duplicates). *)

val compile : Schema.relation_schema -> t -> (Tuple.t -> Rat.t)
(** [compile schema e] resolves attribute names to positions once; the
    result is {!eval} without per-tuple name lookups.
    @raise Not_found if an attribute does not exist in the schema. *)

val eval : Schema.relation_schema -> Tuple.t -> t -> Rat.t
(** Numeric evaluation on a tuple.
    @raise Invalid_argument if a referenced attribute holds a string. *)

val linearize :
  Schema.relation_schema -> is_measure:(string -> bool) -> Tuple.t -> t ->
  (Rat.t * string) list * Rat.t
(** Affine view on one tuple: measure-attribute terms plus a constant
    folding every non-repairable part. *)

val linearizer :
  Schema.relation_schema -> is_measure:(string -> bool) -> t ->
  (Rat.t * string) list * (Tuple.t -> Rat.t)
(** {!linearize} split once per expression: the measure-attribute terms,
    which are the same for every tuple, and the evaluator of the
    constant part. *)

val pp : Format.formatter -> t -> unit
