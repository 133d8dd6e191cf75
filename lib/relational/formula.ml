(** Boolean selection formulas — the WHERE language of aggregation functions.

    A formula α(x₁, …, xₖ) compares attributes of the summed-over relation,
    formula parameters (instantiated by the grounding of the enclosing
    aggregate constraint) and constants (paper §3.1). *)

type term =
  | Attr of string   (** attribute of the relation the aggregation ranges over *)
  | Param of int     (** the i-th variable of the enclosing constraint *)
  | Const of Value.t

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of term * cmp * term
  | And of t * t
  | Or of t * t
  | Not of t

(** [attr = v] — the overwhelmingly common atom shape. *)
let attr_eq name v = Cmp (Attr name, Eq, Const v)

let attr_eq_param name i = Cmp (Attr name, Eq, Param i)

let conj = function [] -> True | f :: fs -> List.fold_left (fun a b -> And (a, b)) f fs

let eval_cmp op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(** [compile schema f] resolves attribute names to positions once and
    returns the evaluator of [f] on tuples of [schema] under a parameter
    environment.
    @raise Not_found if an attribute does not exist in the schema; the
    evaluator raises [Invalid_argument] if a parameter is not bound. *)
let compile schema f =
  let term = function
    | Attr name ->
      let i = Schema.attr_index schema name in
      fun _ tuple -> Tuple.value tuple i
    | Const v -> fun _ _ -> v
    | Param i ->
      fun (env : Value.t option array) _ ->
        (match env.(i) with
         | Some v -> v
         | None -> invalid_arg (Printf.sprintf "Formula.eval: unbound parameter x%d" i))
  in
  let rec go = function
    | True -> fun _ _ -> true
    | Cmp (a, op, b) ->
      let a = term a and b = term b in
      fun env tuple -> eval_cmp op (Value.compare (a env tuple) (b env tuple))
    | And (f, g) ->
      let f = go f and g = go g in
      fun env tuple -> f env tuple && g env tuple
    | Or (f, g) ->
      let f = go f and g = go g in
      fun env tuple -> f env tuple || g env tuple
    | Not f ->
      let f = go f in
      fun env tuple -> not (f env tuple)
  in
  go f

(** Evaluate against a tuple of [schema] under a parameter environment.
    @raise Invalid_argument if a parameter is not bound.
    @raise Not_found if an attribute does not exist in the schema. *)
let eval schema env tuple f = compile schema f env tuple

(** The conjuncts of a formula: nested [And]s flattened left to right,
    [True] dropped. *)
let rec conjuncts = function
  | True -> []
  | And (f, g) -> conjuncts f @ conjuncts g
  | f -> [ f ]

(** Attribute names mentioned anywhere in the formula (part of the paper's
    W(χ) used by the steadiness test). *)
let rec attrs = function
  | True -> []
  | Cmp (a, _, b) ->
    let of_term = function Attr n -> [ n ] | Param _ | Const _ -> [] in
    of_term a @ of_term b
  | And (f, g) | Or (f, g) -> attrs f @ attrs g
  | Not f -> attrs f

(** Parameter indices mentioned in the formula. *)
let rec params = function
  | True -> []
  | Cmp (a, _, b) ->
    let of_term = function Param i -> [ i ] | Attr _ | Const _ -> [] in
    of_term a @ of_term b
  | And (f, g) | Or (f, g) -> params f @ params g
  | Not f -> params f

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | Cmp (a, op, b) ->
    let term_str = function
      | Attr n -> n
      | Param i -> Printf.sprintf "x%d" i
      | Const v -> Value.to_string v
    in
    let op_str = function Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" in
    Format.fprintf fmt "%s %s %s" (term_str a) (op_str op) (term_str b)
  | And (f, g) -> Format.fprintf fmt "(%a AND %a)" pp f pp g
  | Or (f, g) -> Format.fprintf fmt "(%a OR %a)" pp f pp g
  | Not f -> Format.fprintf fmt "(NOT %a)" pp f
