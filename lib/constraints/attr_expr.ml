(** Attribute expressions on a relation (paper §3.1):

    {ul
    {- a numerical constant is an attribute expression;}
    {- each attribute Aᵢ is an attribute expression;}
    {- e₁ ± e₂ and c × e are attribute expressions.}}

    Evaluated per tuple, an attribute expression is affine in the tuple's
    measure attributes — which is what lets a steady constraint become a
    linear inequality over the z-variables. *)

open Dart_numeric
open Dart_relational

type t =
  | Const of Rat.t
  | Attr of string
  | Add of t * t
  | Sub of t * t
  | Scale of Rat.t * t

let const_int n = Const (Rat.of_int n)

(** Attribute names referenced by the expression. *)
let rec attrs = function
  | Const _ -> []
  | Attr a -> [ a ]
  | Add (e1, e2) | Sub (e1, e2) -> attrs e1 @ attrs e2
  | Scale (_, e) -> attrs e

(** Affine view of the expression, split once: a list of
    [(coefficient, attribute)] terms — one per {e measure} attribute
    occurrence, the same for every tuple — plus the evaluator of the
    rational constant collecting everything whose value cannot change
    under repair.  [is_measure a] decides which attributes are
    repairable. *)
let linearizer schema ~is_measure expr =
  let rec go = function
    | Const c -> ([], fun _ -> c)
    | Attr a ->
      if is_measure a then ([ (Rat.one, a) ], fun _ -> Rat.zero)
      else
        let i = Schema.attr_index schema a in
        ([], fun tuple -> Value.to_rat (Tuple.value tuple i))
    | Add (e1, e2) ->
      let t1, c1 = go e1 and t2, c2 = go e2 in
      (t1 @ t2, fun tuple -> Rat.add (c1 tuple) (c2 tuple))
    | Sub (e1, e2) ->
      let t1, c1 = go e1 and t2, c2 = go e2 in
      (t1 @ List.map (fun (c, a) -> (Rat.neg c, a)) t2, fun tuple -> Rat.sub (c1 tuple) (c2 tuple))
    | Scale (k, e) ->
      let t, c = go e in
      (List.map (fun (c', a) -> (Rat.mul k c', a)) t, fun tuple -> Rat.mul k (c tuple))
  in
  go expr

(** {!linearizer} applied to one tuple. *)
let linearize schema ~is_measure tuple expr =
  let terms, const = linearizer schema ~is_measure expr in
  (terms, const tuple)

(** [compile schema e] resolves attribute names to positions once and
    returns the numeric evaluator of [e] on tuples of [schema]: the
    constant part of {!linearizer} when no attribute is a measure.
    @raise Not_found if an attribute does not exist in the schema; the
    evaluator raises [Invalid_argument] on a string-valued attribute. *)
let compile schema expr = snd (linearizer schema ~is_measure:(fun _ -> false) expr)

(** Fully numeric evaluation on a tuple.
    @raise Invalid_argument if a referenced attribute holds a string. *)
let eval schema tuple expr = compile schema expr tuple

let rec pp fmt = function
  | Const c -> Rat.pp fmt c
  | Attr a -> Format.pp_print_string fmt a
  | Add (e1, e2) -> Format.fprintf fmt "(%a + %a)" pp e1 pp e2
  | Sub (e1, e2) -> Format.fprintf fmt "(%a - %a)" pp e1 pp e2
  | Scale (c, e) -> Format.fprintf fmt "%a*(%a)" Rat.pp c pp e
