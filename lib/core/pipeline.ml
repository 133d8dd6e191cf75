(** The end-to-end DART data flow (paper Figure 2):

    input document → (format conversion) → HTML → wrapper → row pattern
    instances → database generator → database instance D → inconsistency
    detection → MILP repair → operator validation → consistent database.

    Each stage is exposed separately so examples and benches can observe
    intermediate results; {!process} runs the whole flow. *)

open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_wrapper
module Obs = Dart_obs.Obs

type acquisition = {
  html : string;                    (** document after format conversion *)
  extraction : Extractor.result;    (** wrapper output incl. per-row reports *)
  generation : Db_gen.report;       (** database generator output *)
  db : Database.t;                  (** the acquired instance D *)
}

(** Acquisition + extraction module: document in, database out.
    [cancel] is checked between stages so a dead deadline stops the flow
    before the next expensive phase. *)
let acquire scenario ?(cancel = Dart_resilience.Cancel.none)
    ?(format = Convert.Html) (text : string) : acquisition =
  Obs.span "pipeline.acquire" ~attrs:[ ("bytes", Obs.Int (String.length text)) ]
    (fun () ->
      Dart_resilience.Cancel.check cancel;
      let html = Obs.span "pipeline.convert" (fun () -> Convert.to_html format text) in
      Dart_resilience.Cancel.check cancel;
      let extraction =
        Obs.span "pipeline.extract" (fun () ->
            Extractor.extract scenario.Scenario.metadata html)
      in
      Dart_resilience.Cancel.check cancel;
      let generation =
        Obs.span "pipeline.generate" (fun () ->
            Db_gen.generate scenario.Scenario.metadata scenario.Scenario.mapping
              extraction.Extractor.instances
              (Database.create scenario.Scenario.schema))
      in
      Obs.add_attr "rows_matched" (Obs.Int (List.length extraction.Extractor.instances));
      Obs.add_attr "tuples" (Obs.Int (Database.cardinality generation.Db_gen.db));
      { html; extraction; generation; db = generation.Db_gen.db })

(** Inconsistency detection: the constraints violated by D, with the ground
    substitutions that witness each violation. *)
let detect scenario db =
  Obs.span "pipeline.detect"
    ~attrs:[ ("constraints", Obs.Int (List.length scenario.Scenario.constraints)) ]
    (fun () ->
      let idx = Aggregate.Indexes.create db in
      let violated =
        List.filter_map
          (fun k ->
            match Agg_constraint.violated idx k with
            | [] -> None
            | v -> Some (k, List.map fst v))
          scenario.Scenario.constraints
      in
      Obs.add_attr "violated" (Obs.Int (List.length violated));
      violated)

let consistent scenario db = Agg_constraint.holds_all db scenario.Scenario.constraints

(** One-shot repair (no operator): the card-minimal repair of D.
    [mapper] schedules the per-component solves (e.g. over a domain
    pool); [max_nodes] bounds branch & bound per component. *)
let repair ?max_nodes ?mapper ?cancel scenario db =
  Obs.span "pipeline.repair" (fun () ->
      Solver.card_minimal ?max_nodes ?mapper ?cancel db scenario.Scenario.constraints)

(** Supervised repairing: the full §6.3 validation loop (see
    {!Validation.run}). *)
let validate scenario ?batch ?max_iterations ?cancel ~operator db =
  Obs.span "pipeline.validate" (fun () ->
      Validation.run ?batch ?max_iterations ?cancel ~operator db
        scenario.Scenario.constraints)

type outcome = {
  acquisition : acquisition;
  validation : Validation.outcome;
}

(** The complete pipeline on one document. *)
let process scenario ?format ?batch ?max_iterations ~operator text : outcome =
  Obs.span "pipeline.process" (fun () ->
      let acquisition = acquire scenario ?format text in
      let validation = validate scenario ?batch ?max_iterations ~operator acquisition.db in
      { acquisition; validation })
