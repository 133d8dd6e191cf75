(** Aggregate constraints (paper Definition 1):

    ∀x₁,…,xₖ ( φ(x₁,…,xₖ) ⟹ Σᵢ cᵢ·χᵢ(Xᵢ) ⊙ K )      ⊙ ∈ {≤, ≥, =}

    φ is a conjunction of relation atoms whose arguments are variables,
    constants or the anonymous '_' of the paper's shorthand; each χᵢ is an
    {!Aggregate.t} applied to actuals drawn from φ's variables and
    constants.  Equalities are first-class (the paper treats them as pairs
    of inequalities; keeping them explicit produces the smaller MILP the
    paper actually shows in Figure 4). *)

open Dart_numeric
open Dart_relational

type atom_arg =
  | Var of int       (** variable xᵢ, 0-based *)
  | Cst of Value.t
  | Anon             (** the '_' placeholder of the short notation *)

type atom = { rel : string; args : atom_arg array }

type actual =
  | AVar of int
  | ACst of Value.t

type application = {
  coeff : Rat.t;
  fn : Aggregate.t;
  actuals : actual array;
}

type op = Le | Ge | Eq

type t = {
  name : string;
  nvars : int;            (** k: number of universally quantified variables *)
  body : atom list;       (** φ *)
  apps : application list;(** the linear combination Σ cᵢ·χᵢ(Xᵢ) *)
  op : op;
  bound : Rat.t;          (** K *)
}

let make ~name ~nvars ~body ~apps ~op ~bound =
  let check_var ctx i =
    if i < 0 || i >= nvars then
      invalid_arg
        (Printf.sprintf "Agg_constraint.make %s: %s uses x%d >= nvars=%d" name ctx i nvars)
  in
  List.iter
    (fun a ->
      Array.iter (function Var i -> check_var "body" i | Cst _ | Anon -> ()) a.args)
    body;
  List.iter
    (fun app ->
      if Array.length app.actuals <> app.fn.Aggregate.arity then
        invalid_arg (Printf.sprintf "Agg_constraint.make %s: %s expects %d actuals"
                       name app.fn.Aggregate.name app.fn.Aggregate.arity);
      Array.iter (function AVar i -> check_var "actuals" i | ACst _ -> ()) app.actuals)
    apps;
  { name; nvars; body; apps; op; bound }

(* ------------------------------------------------------------------ *)
(* Grounding: all substitutions θ of x₁..xₖ making φ true in D.        *)
(* ------------------------------------------------------------------ *)

(** Enumerate the substitutions satisfying the body φ.  A variable left
    unbound by φ (allowed by Definition 1 only when it also appears in no
    aggregation) stays [None].  Duplicate substitutions arising from
    several derivations are returned once, compared by {!Value.key}. *)
let groundings db t =
  let atoms = List.map (fun a -> (a, Database.tuples_of db a.rel)) t.body in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec match_atoms env = function
    | [] ->
      let key = Array.map (Option.map Value.key) env in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        order := Array.copy env :: !order
      end
    | (atom, tuples) :: rest ->
      List.iter
        (fun tu ->
          (* Unify the atom arguments with the tuple's values. *)
          let bound = ref [] in
          let ok =
            let n = Array.length atom.args in
            let rec go i =
              if i >= n then true
              else
                let v = Tuple.value tu i in
                match atom.args.(i) with
                | Anon -> go (i + 1)
                | Cst c -> Value.equal c v && go (i + 1)
                | Var x ->
                  (match env.(x) with
                   | Some bound_v -> Value.equal bound_v v && go (i + 1)
                   | None ->
                     env.(x) <- Some v;
                     bound := x :: !bound;
                     go (i + 1))
            in
            go 0
          in
          if ok then match_atoms env rest;
          List.iter (fun x -> env.(x) <- None) !bound)
        tuples
  in
  match_atoms (Array.make t.nvars None) atoms;
  List.rev !order

(** Actual-parameter values of an application under a substitution.
    @raise Invalid_argument if the substitution leaves a needed variable
    unbound (the constraint is then ill-formed w.r.t. Definition 1). *)
let instantiate_actuals t (theta : Value.t option array) app =
  Array.map
    (function
      | ACst v -> v
      | AVar i ->
        (match theta.(i) with
         | Some v -> v
         | None ->
           invalid_arg
             (Printf.sprintf "Agg_constraint %s: variable x%d not bound by the body" t.name i)))
    app.actuals

let eval_op op c = match op with Le -> c <= 0 | Ge -> c >= 0 | Eq -> c = 0

(** The left-hand side Σ cᵢ·χᵢ(θXᵢ) for one ground substitution, each χᵢ
    answered from its index in [idx]. *)
let lhs idx t theta =
  List.fold_left
    (fun acc app ->
      let actuals = instantiate_actuals t theta app in
      Rat.add acc
        (Rat.mul app.coeff (Aggregate.Index.sum (Aggregate.Indexes.find idx app.fn) actuals)))
    Rat.zero t.apps

let satisfied t lhs = eval_op t.op (Rat.compare lhs t.bound)

(** Violated ground instances with their left-hand sides, in grounding
    order. *)
let violated idx t =
  List.filter_map
    (fun theta ->
      let v = lhs idx t theta in
      if satisfied t v then None else Some (theta, v))
    (groundings (Aggregate.Indexes.db idx) t)

(** Ground instances of the constraint that D violates (empty = satisfied). *)
let violations db t = List.map fst (violated (Aggregate.Indexes.create db) t)

(* Stops at the first violated grounding. *)
let holds_in idx t =
  List.for_all (fun theta -> satisfied t (lhs idx t theta)) (groundings (Aggregate.Indexes.db idx) t)

let holds db t = holds_in (Aggregate.Indexes.create db) t

(** [holds_all db cs] is the paper's D ⊨ AC. *)
let holds_all db cs =
  let idx = Aggregate.Indexes.create db in
  List.for_all (holds_in idx) cs

let pp_arg fmt = function
  | Var i -> Format.fprintf fmt "x%d" i
  | Cst v -> Value.pp fmt v
  | Anon -> Format.pp_print_string fmt "_"

let pp fmt t =
  let pp_atom fmt a =
    Format.fprintf fmt "%s(%s)" a.rel
      (String.concat "," (Array.to_list (Array.map (Format.asprintf "%a" pp_arg) a.args)))
  in
  let pp_app fmt app =
    Format.fprintf fmt "%s*%s(%s)" (Rat.to_string app.coeff) app.fn.Aggregate.name
      (String.concat ","
         (Array.to_list
            (Array.map
               (function AVar i -> Printf.sprintf "x%d" i | ACst v -> Value.to_string v)
               app.actuals)))
  in
  Format.fprintf fmt "%s: %a ==> %a %s %s" t.name
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_atom)
    t.body
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ") pp_app)
    t.apps
    (match t.op with Le -> "<=" | Ge -> ">=" | Eq -> "=")
    (Rat.to_string t.bound)
