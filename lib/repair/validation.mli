(** The validation interface loop (paper §6.3).

    The repairing module proposes a card-minimal repair; the operator
    examines each suggested update (shown most-constraint-involved first)
    and either accepts it or supplies the actual source value.  Decisions
    become equality pins and the MILP is re-solved until a proposed repair
    is fully accepted.  Cells validated once are never shown again. *)

open Dart_relational
open Dart_constraints

type decision =
  | Accept
  | Override of Value.t

type operator = cell:Ground.cell -> tuple:Tuple.t -> suggested:Value.t -> decision
(** The operator sees the cell, the tuple it belongs to (to locate the row
    in the source document) and the suggested value. *)

val semantic_key : Schema.t -> Tuple.t -> string * (string * string) list
(** A tuple's relation plus its non-measure attribute values — how a human
    locates the row in the paper document. *)

val oracle : truth:Database.t -> operator
(** Ground-truth operator: accepts exactly the suggestions matching the
    truth database, locating rows by {!semantic_key} (robust to dropped or
    reordered rows).  Updates on rows absent from the truth are accepted. *)

val noisy_oracle :
  truth:Database.t -> error_rate:float -> rand:(unit -> float) -> operator
(** Oracle that wrongly confirms with probability [error_rate]. *)

type outcome = {
  final_db : Database.t;
  iterations : int;   (** repair computations performed *)
  examined : int;     (** updates the operator had to look at *)
  pins : int;         (** equality constraints accumulated *)
  converged : bool;   (** ended with an accepted repair *)
}

val apply_pins : Database.t -> (Ground.cell * Dart_numeric.Rat.t) list -> Database.t
(** The accepted repair once the system is consistent under the pins:
    each pinned cell takes its pinned value (cells already holding it are
    left alone). *)

val run :
  ?batch:int -> ?max_iterations:int ->
  ?cancel:Dart_resilience.Cancel.t ->
  operator:operator ->
  Database.t -> Agg_constraint.t list -> outcome
(** Run the loop.  [batch] caps updates examined per iteration (§6.3 allows
    re-computation "after validating only some of the suggested updates");
    [max_iterations] guards non-oracle operators (default 50); each
    iteration re-solves with {!Solver.card_minimal} under the accumulated
    pins, so answer reuse across iterations comes from {!Solver.Cache}
    alone; [cancel] aborts the per-iteration re-solves cooperatively (a
    cancelled iteration ends the loop unconverged). *)
