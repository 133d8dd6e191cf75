(** The end-to-end DART data flow (paper Figure 2): document → format
    conversion → wrapper → database generator → inconsistency detection →
    MILP repair → operator validation. *)

open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_wrapper

type acquisition = {
  html : string;
  extraction : Extractor.result;
  generation : Db_gen.report;
  db : Database.t;
}

val acquire :
  Scenario.t -> ?cancel:Dart_resilience.Cancel.t -> ?format:Convert.format ->
  string -> acquisition
(** Acquisition + extraction module: document in, database out.  [cancel]
    is checked between stages.
    @raise Dart_resilience.Cancel.Cancelled if the token fires. *)

val detect :
  Scenario.t -> Database.t ->
  (Agg_constraint.t * Value.t option array list) list
(** Violated constraints with the witnessing ground substitutions. *)

val consistent : Scenario.t -> Database.t -> bool
(** D ⊨ AC; stops at the first violated grounding. *)

val repair :
  ?max_nodes:int -> ?mapper:Solver.mapper -> ?cancel:Dart_resilience.Cancel.t ->
  Scenario.t -> Database.t -> Solver.result
(** One-shot card-minimal repair (no operator).  [mapper] schedules the
    per-component solves (default sequential); [max_nodes] bounds branch
    & bound per component; [cancel] aborts cooperatively with anytime
    degradation (see {!Solver.provenance}). *)

val validate :
  Scenario.t -> ?batch:int -> ?max_iterations:int ->
  ?cancel:Dart_resilience.Cancel.t ->
  operator:Validation.operator -> Database.t -> Validation.outcome
(** The §6.3 supervised loop (see {!Validation.run}). *)

type outcome = {
  acquisition : acquisition;
  validation : Validation.outcome;
}

val process :
  Scenario.t -> ?format:Convert.format -> ?batch:int -> ?max_iterations:int ->
  operator:Validation.operator -> string -> outcome
(** The complete pipeline on one document. *)
