(** Aggregation functions (paper §3.1):

    χ(x₁, …, xₖ) = SELECT sum(e) FROM R WHERE α(x₁, …, xₖ)

    [where] is a {!Dart_relational.Formula.t} whose [Param i] refers to the
    i-th {e formal} parameter of the function; constraints instantiate the
    formals with variables or constants (see {!Agg_constraint}). *)

open Dart_numeric
open Dart_relational

type t = {
  name : string;
  rel : string;            (** the relation R the sum ranges over *)
  expr : Attr_expr.t;      (** the summed attribute expression e *)
  arity : int;             (** number of formal parameters *)
  where : Formula.t;       (** α, over [Param 0 .. arity-1] *)
}

let make ~name ~rel ~arity ~expr ~where =
  List.iter
    (fun i ->
      if i < 0 || i >= arity then
        invalid_arg (Printf.sprintf "Aggregate.make %s: Param %d out of arity %d" name i arity))
    (Formula.params where);
  { name; rel; expr; arity; where }

(* ------------------------------------------------------------------ *)
(* Hash-partitioned evaluation                                         *)
(* ------------------------------------------------------------------ *)

(* One pass over R per (database, aggregate) files each tuple under the
   values of its [Attr = Param i] conjuncts, so an application costs
   O(|T_χ|) instead of a scan of R: O(|T| + |θ|·k) per constraint rather
   than O(|θ|·k·|T|).  Keys are {!Value.key}s, so numbers equal under
   {!Value.compare} share a bucket; buckets keep R's insertion order, so
   T_χ is listed exactly as a scan lists it and the ground system does
   not change. *)

module Index = struct
  type aggregate = t

  type t = {
    fn : aggregate;
    key_params : int array;  (* formal parameter behind each key position *)
    buckets : (Value.key array, Tuple.t list ref) Hashtbl.t;
    residual : (Value.t option array -> Tuple.t -> bool) option;
    value : Tuple.t -> Rat.t;  (* the summed expression e *)
  }

  let build db fn =
    let rs = Schema.relation (Database.schema db) fn.rel in
    let keyed = ref [] and fixed = ref [] and residual = ref [] in
    List.iter
      (function
        | Formula.Cmp (Attr a, Eq, Param i) | Cmp (Param i, Eq, Attr a) ->
          keyed := (Schema.attr_index rs a, i) :: !keyed
        | Cmp (Attr a, Eq, Const v) | Cmp (Const v, Eq, Attr a) ->
          fixed := (Schema.attr_index rs a, v) :: !fixed
        | c -> residual := c :: !residual)
      (Formula.conjuncts fn.where);
    let keyed = Array.of_list (List.rev !keyed) and fixed = List.rev !fixed in
    let buckets = Hashtbl.create 64 in
    List.iter
      (fun tu ->
        if List.for_all (fun (pos, v) -> Value.equal (Tuple.value tu pos) v) fixed then begin
          let key = Array.map (fun (pos, _) -> Value.key (Tuple.value tu pos)) keyed in
          match Hashtbl.find_opt buckets key with
          | Some ts -> ts := tu :: !ts
          | None -> Hashtbl.add buckets key (ref [ tu ])
        end)
      (Database.tuples_of db fn.rel);
    Hashtbl.iter (fun _ ts -> ts := List.rev !ts) buckets;
    { fn;
      key_params = Array.map snd keyed;
      buckets;
      residual =
        (match List.rev !residual with
         | [] -> None
         | cs -> Some (Formula.compile rs (Formula.conj cs)));
      value = Attr_expr.compile rs fn.expr }

  let involved idx (actuals : Value.t array) =
    if Array.length actuals <> idx.fn.arity then
      invalid_arg (Printf.sprintf "Aggregate.involved_tuples %s: arity mismatch" idx.fn.name);
    match Hashtbl.find_opt idx.buckets (Array.map (fun i -> Value.key actuals.(i)) idx.key_params) with
    | None -> []
    | Some ts ->
      (match idx.residual with
       | None -> !ts
       | Some keep -> List.filter (keep (Array.map Option.some actuals)) !ts)

  (* Integer values — the common case — are added by their numerators,
     skipping [Rat.add]'s cross products and gcd; the first non-integer
     switches to rational addition for the rest.  Same sum either way. *)
  let sum idx actuals =
    let rec ints acc = function
      | [] -> Rat.of_bigint acc
      | tu :: rest ->
        let v = idx.value tu in
        if Rat.is_integer v then ints (Bigint.add acc (Rat.num v)) rest
        else rats (Rat.add (Rat.of_bigint acc) v) rest
    and rats acc = function
      | [] -> acc
      | tu :: rest -> rats (Rat.add acc (idx.value tu)) rest
    in
    ints Bigint.zero (involved idx actuals)
end

module Indexes = struct
  type aggregate = t
  type t = { db : Database.t; mutable built : (aggregate * Index.t) list }

  let create db = { db; built = [] }
  let db c = c.db

  let find c fn =
    match List.assq_opt fn c.built with
    | Some idx -> idx
    | None ->
      let idx = Index.build c.db fn in
      c.built <- (fn, idx) :: c.built;
      idx
end

(** Tuples of [db] involved in the application (the paper's T_χ) under the
    given actual-parameter values. *)
let involved_tuples db t actuals = Index.involved (Index.build db t) actuals

(** Evaluate the aggregation-sum on the current database state. *)
let eval db t actuals = Index.sum (Index.build db t) actuals

(** The attribute set W(χ) of the steadiness test: attributes named in the
    WHERE clause (they all belong to [t.rel]).  The contribution of
    variables appearing in the WHERE clause is computed by
    {!Steady.check}, which knows the constraint body. *)
let where_attrs t = List.map (fun a -> (t.rel, a)) (Formula.attrs t.where)

(** Formal parameter positions referenced by the WHERE clause. *)
let where_params t = List.sort_uniq compare (Formula.params t.where)

let pp fmt t =
  Format.fprintf fmt "%s(%d) = SELECT sum(%a) FROM %s WHERE %a" t.name t.arity
    Attr_expr.pp t.expr t.rel Formula.pp t.where
