(** Typed values and domains of the relational model.

    The paper's Section 3 fixes three attribute domains: ℤ (integers),
    ℝ (reals) and 𝕊 (strings); ℤ and ℝ are the {e numerical} domains.
    Reals are represented exactly as rationals so that the repairing
    machinery never loses precision between the database and the MILP. *)

open Dart_numeric

type domain = Int_dom | Real_dom | String_dom

type t =
  | Int of int
  | Real of Rat.t
  | String of string

let domain_of = function
  | Int _ -> Int_dom
  | Real _ -> Real_dom
  | String _ -> String_dom

let is_numerical_domain = function Int_dom | Real_dom -> true | String_dom -> false

let domain_name = function
  | Int_dom -> "Z"
  | Real_dom -> "R"
  | String_dom -> "S"

(** Numeric view as an exact rational.  @raise Invalid_argument on strings. *)
let to_rat = function
  | Int n -> Rat.of_int n
  | Real r -> r
  | String s -> invalid_arg ("Value.to_rat: string value " ^ s)

(** Build a value of the given numerical domain from a rational.
    For [Int_dom] the rational must be integral.
    @raise Invalid_argument for [String_dom] or a non-integral [Int_dom]. *)
let of_rat dom r =
  match dom with
  | Real_dom -> Real r
  | Int_dom ->
    if not (Rat.is_integer r) then
      invalid_arg ("Value.of_rat: non-integral " ^ Rat.to_string r);
    (match Bigint.to_int_opt (Rat.num r) with
     | Some n -> Int n
     | None -> invalid_arg "Value.of_rat: integer overflow")
  | String_dom -> invalid_arg "Value.of_rat: string domain"

let compare a b =
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Real x, Real y -> Rat.compare x y
  | Int x, Real y -> Rat.compare (Rat.of_int x) y
  | Real x, Int y -> Rat.compare x (Rat.of_int y)
  | String x, String y -> Stdlib.compare x y
  | String _, (Int _ | Real _) -> 1
  | (Int _ | Real _), String _ -> -1

let equal a b = compare a b = 0

type key = KInt of int | KNum of string | KStr of string

(* A real with an integral value that fits an int shares the [Int] key;
   any other rational is keyed by its normalised text. *)
let key = function
  | Int n -> KInt n
  | Real r ->
    (match if Rat.is_integer r then Bigint.to_int_opt (Rat.num r) else None with
     | Some n -> KInt n
     | None -> KNum (Rat.to_string r))
  | String s -> KStr s

let to_string = function
  | Int n -> string_of_int n
  | Real r -> Rat.to_string r
  | String s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

(** Parse a textual cell into a value of the requested domain.
    @raise Invalid_argument when the text does not fit the domain. *)
let parse dom text =
  match dom with
  | String_dom -> String text
  | Int_dom ->
    (match int_of_string_opt (String.trim text) with
     | Some n -> Int n
     | None -> invalid_arg ("Value.parse: not an integer: " ^ text))
  | Real_dom ->
    (try Real (Rat.of_string (String.trim text))
     with _ -> invalid_arg ("Value.parse: not a number: " ^ text))

let parse_opt dom text = try Some (parse dom text) with Invalid_argument _ -> None
