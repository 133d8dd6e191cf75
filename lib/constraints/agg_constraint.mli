(** Aggregate constraints (paper Definition 1):

    ∀x₁,…,xₖ ( φ(x₁,…,xₖ) ⟹ Σᵢ cᵢ·χᵢ(Xᵢ) ⊙ K )      ⊙ ∈ {{≤, ≥, =}}

    φ is a conjunction of relation atoms over variables, constants and the
    anonymous '_' of the paper's short notation; each χᵢ is an
    {!Aggregate.t} applied to actual parameters drawn from φ's variables
    and constants. *)

open Dart_numeric
open Dart_relational

type atom_arg =
  | Var of int          (** variable xᵢ (0-based) *)
  | Cst of Value.t
  | Anon                (** the '_' placeholder *)

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
  nvars : int;
  body : atom list;
  apps : application list;
  op : op;
  bound : Rat.t;
}

val make :
  name:string -> nvars:int -> body:atom list -> apps:application list ->
  op:op -> bound:Rat.t -> t
(** Build a constraint, checking variable indices against [nvars] and actual
    arities against each aggregation function.
    @raise Invalid_argument on malformed input. *)

val groundings : Database.t -> t -> Value.t option array list
(** All substitutions θ of x₁…xₖ making the body φ true in D (deduplicated).
    Variables not bound by φ stay [None]. *)

val instantiate_actuals : t -> Value.t option array -> application -> Value.t array
(** Actual-parameter values of one application under a substitution.
    @raise Invalid_argument if a needed variable is unbound. *)

val eval_op : op -> int -> bool
(** [eval_op op c] interprets a comparison result [c] against the operator. *)

val violated : Aggregate.Indexes.t -> t -> (Value.t option array * Rat.t) list
(** The ground substitutions whose instance the indexed database violates,
    each with its left-hand side Σᵢ cᵢ·χᵢ(θXᵢ), in grounding order. *)

val violations : Database.t -> t -> Value.t option array list
(** The ground substitutions whose instance the database violates. *)

val holds : Database.t -> t -> bool
(** No violated grounding; stops at the first violated one. *)

val holds_all : Database.t -> t list -> bool
(** The paper's D ⊨ AC, with one index per aggregation function shared
    across the constraints. *)

val pp_arg : Format.formatter -> atom_arg -> unit
val pp : Format.formatter -> t -> unit
