(** Boolean selection formulas — the WHERE language α(x₁, …, xₖ) of
    aggregation functions (paper §3.1).

    Terms compare attributes of the relation being ranged over, formula
    parameters ([Param i] — the xᵢ, instantiated at constraint grounding
    time) and constants. *)

type term =
  | Attr of string
  | Param of int
  | Const of Value.t

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of term * cmp * term
  | And of t * t
  | Or of t * t
  | Not of t

val attr_eq : string -> Value.t -> t
(** [attr_eq a v] is [a = v]. *)

val attr_eq_param : string -> int -> t
(** [attr_eq_param a i] is [a = xᵢ]. *)

val conj : t list -> t
(** Conjunction of a list ([True] for the empty list). *)

val eval : Schema.relation_schema -> Value.t option array -> Tuple.t -> t -> bool
(** Evaluate against a tuple under a parameter environment.
    @raise Invalid_argument if a referenced parameter is unbound.
    @raise Not_found if an attribute does not exist in the schema. *)

val compile :
  Schema.relation_schema -> t -> (Value.t option array -> Tuple.t -> bool)
(** [compile schema f] resolves attribute names to positions once; the
    result is {!eval} on tuples of [schema], without the per-tuple name
    lookups.
    @raise Not_found if an attribute does not exist in the schema. *)

val conjuncts : t -> t list
(** The conjuncts of a formula: nested [And]s flattened left to right,
    [True] dropped. *)

val attrs : t -> string list
(** Attribute names mentioned (with duplicates); feeds the W(χ) of the
    steadiness test. *)

val params : t -> int list
(** Parameter indices mentioned (with duplicates). *)

val pp : Format.formatter -> t -> unit
