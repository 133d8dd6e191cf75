(** Typed values and domains of the relational model (paper §3).

    Domains are ℤ (integers), ℝ (reals, represented exactly as rationals so
    the repairing MILP never loses precision) and 𝕊 (strings); ℤ and ℝ are
    the {e numerical} domains. *)

type domain = Int_dom | Real_dom | String_dom

type t =
  | Int of int
  | Real of Dart_numeric.Rat.t
  | String of string

val domain_of : t -> domain

val is_numerical_domain : domain -> bool
(** True for ℤ and ℝ. *)

val domain_name : domain -> string
(** "Z", "R" or "S". *)

val to_rat : t -> Dart_numeric.Rat.t
(** Numeric view as an exact rational.
    @raise Invalid_argument on string values. *)

val of_rat : domain -> Dart_numeric.Rat.t -> t
(** Build a value of a numerical domain from a rational.  For [Int_dom] the
    rational must be integral and fit a native int.
    @raise Invalid_argument otherwise, and always for [String_dom]. *)

val compare : t -> t -> int
(** Total order; [Int] and [Real] compare numerically, strings come after
    all numbers. *)

val equal : t -> t -> bool

type key
(** A hashable normal form of a value, built from ints and strings only. *)

val key : t -> key
(** [key a = key b] exactly when [equal a b]: an [Int] and a [Real] holding
    the same number share a key.  Keys work with polymorphic [=] and
    [Hashtbl]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val parse : domain -> string -> t
(** Parse a textual cell into a value of the requested domain.
    @raise Invalid_argument when the text does not fit the domain. *)

val parse_opt : domain -> string -> t option
