(** The validation interface loop (paper §6.3).

    The repairing module proposes a card-minimal repair; the operator
    examines the suggested updates — displayed most-constraint-involved
    first — comparing each with the source document.  Every decision
    becomes an equality pin on the cell:

    {ul
    {- {e accept}: pin the cell to the suggested value;}
    {- {e override}: pin the cell to the actual source value.}}

    The MILP is re-solved under the accumulated pins until a proposed
    repair is fully accepted.  Cells validated once are never shown again.
    The operator may stop after validating only the first [batch] updates
    of an iteration and ask for a re-computation early. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
module Obs = Dart_obs.Obs

let g_pins = Obs.Metrics.gauge "validation.pins"
let m_iterations = Obs.Metrics.counter "validation.iterations"
let m_examined = Obs.Metrics.counter "validation.examined"
let m_overrides = Obs.Metrics.counter "validation.overrides"

(** One operator decision on a suggested update. *)
type decision =
  | Accept
  | Override of Value.t (** the actual source value the operator reads *)

type operator = cell:Ground.cell -> tuple:Tuple.t -> suggested:Value.t -> decision
(** The operator sees the updated cell, the tuple it belongs to (so a human
    — or an oracle — can locate the corresponding row in the source
    document) and the suggested value. *)

(* Semantic key of a tuple: its relation plus all non-measure attribute
   values.  This is how a human finds the row in the paper document — by
   its labels, not by an internal tuple id — and it keeps the oracle
   correct even when acquisition dropped or reordered rows. *)
let semantic_key schema tu =
  let rel = Tuple.relation tu in
  let rs = Schema.relation schema rel in
  let parts = ref [] in
  Array.iteri
    (fun i v ->
      let attr = Schema.attr_name rs i in
      if not (Schema.is_measure schema ~rel ~attr) then
        parts := (attr, Value.to_string v) :: !parts)
    (Tuple.values tu);
  (rel, List.rev !parts)

(** Oracle operator that reads the ground-truth document: accepts exactly
    the suggestions matching the truth.  Rows are located by their
    non-measure attributes (see {!semantic_key}); an update on a row absent
    from the truth is accepted as-is (the operator has nothing to compare
    against).  This reproduces the intended human workflow for E4. *)
let oracle ~truth : operator =
  let index = Hashtbl.create 64 in
  let schema = Database.schema truth in
  List.iter
    (fun tu -> Hashtbl.replace index (semantic_key schema tu) tu)
    (Database.all_tuples truth);
  fun ~cell:(_, attr) ~tuple ~suggested ->
    match Hashtbl.find_opt index (semantic_key schema tuple) with
    | None -> Accept
    | Some truth_tu ->
      let rs = Schema.relation schema (Tuple.relation truth_tu) in
      let actual = Tuple.value_by_name rs truth_tu attr in
      if Value.equal actual suggested then Accept else Override actual

(** An adversarial-ish operator that mistakenly confirms suggestions with
    probability [error_rate] even when wrong (never used for the headline
    numbers; exercises robustness paths in tests). *)
let noisy_oracle ~truth ~error_rate ~rand : operator =
  let base = oracle ~truth in
  fun ~cell ~tuple ~suggested ->
    match base ~cell ~tuple ~suggested with
    | Accept -> Accept
    | Override v -> if rand () < error_rate then Accept else Override v

type outcome = {
  final_db : Database.t;       (** the repaired database after acceptance *)
  iterations : int;            (** repair computations performed *)
  examined : int;              (** updates the operator had to look at *)
  pins : int;                  (** equality constraints accumulated *)
  converged : bool;            (** loop ended with an accepted repair *)
}

(** The accepted repair once the system is consistent under the pins:
    every pinned cell takes its pinned value. *)
let apply_pins db pins =
  let updates =
    List.filter_map
      (fun (cell, v) ->
        let tid, attr = cell in
        let current = Ground.db_valuation db cell in
        if Rat.equal current v then None
        else begin
          let tu = Database.find db tid in
          let rs = Schema.relation (Database.schema db) (Tuple.relation tu) in
          Some (Update.make ~tid ~attr
                  ~new_value:(Value.of_rat (Schema.attr_domain rs attr) v))
        end)
      pins
  in
  Update.apply db updates

(** Run the loop.  [batch] caps how many updates the operator examines per
    iteration (None = all).  [max_iterations] guards non-oracle operators.
    Each iteration re-solves with {!Solver.card_minimal} under the
    accumulated pins; components the new pins leave untouched are answered
    by {!Solver.Cache} when it is enabled. *)
let run ?batch ?(max_iterations = 50) ?cancel ~operator db constraints :
    outcome =
  let rows = Ground.of_constraints db constraints in
  let rec loop pins validated iterations examined =
    if iterations >= max_iterations then
      { final_db = db; iterations; examined; pins = List.length pins; converged = false }
    else begin
      Obs.Metrics.set g_pins (float_of_int (List.length pins));
      let resolve =
        Obs.span "validation.resolve"
          ~attrs:[ ("iteration", Obs.Int iterations); ("pins", Obs.Int (List.length pins)) ]
          (fun () -> Solver.card_minimal ~forced:pins ?cancel db constraints)
      in
      match resolve with
      | Solver.Consistent ->
        { final_db = apply_pins db pins;
          iterations; examined; pins = List.length pins; converged = true }
      | Solver.No_repair _ | Solver.Node_budget_exceeded _ | Solver.Cancelled _ ->
        { final_db = db; iterations; examined; pins = List.length pins; converged = false }
      | Solver.Repaired (rho, _, _) ->
        let iterations = iterations + 1 in
        let ordered = Solver.display_order rows rho in
        (* Updates on already-validated cells need no re-examination (§6.3:
           "the operator is not requested to validate values which had been
           already validated"). *)
        let to_examine =
          List.filter (fun u -> not (List.mem (Update.cell u) validated)) ordered
        in
        let to_examine =
          match batch with
          | Some b -> List.filteri (fun i _ -> i < b) to_examine
          | None -> to_examine
        in
        if to_examine = [] then begin
          (* Every suggested update was validated before: the repair is
             accepted; apply it. *)
          { final_db = Update.apply db rho;
            iterations; examined; pins = List.length pins; converged = true }
        end
        else begin
          let new_pins, any_override =
            List.fold_left
              (fun (acc, over) u ->
                let cell = Update.cell u in
                let tuple = Database.find db u.Update.tid in
                match operator ~cell ~tuple ~suggested:u.Update.new_value with
                | Accept -> ((cell, Value.to_rat u.Update.new_value) :: acc, over)
                | Override v -> ((cell, Value.to_rat v) :: acc, true))
              ([], false) to_examine
          in
          let examined = examined + List.length to_examine in
          let validated = List.map Update.cell to_examine @ validated in
          let pins = new_pins @ pins in
          Obs.Metrics.incr m_iterations;
          Obs.Metrics.add m_examined (List.length to_examine);
          if any_override then Obs.Metrics.incr m_overrides;
          if Obs.enabled () then
            Obs.log Info "validation.iteration"
              ~attrs:
                [ ("iteration", Obs.Int iterations);
                  ("examined", Obs.Int (List.length to_examine));
                  ("pins", Obs.Int (List.length pins));
                  ("override", Obs.Bool any_override) ];
          if (not any_override) && batch = None then
            (* All suggestions accepted in full view: the repair stands. *)
            { final_db = Update.apply db rho;
              iterations; examined; pins = List.length pins; converged = true }
          else loop pins validated iterations examined
        end
    end
  in
  loop [] [] 0 0
