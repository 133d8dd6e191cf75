(* Seeded input documents.  The program only ever sees the rendered
   HTML; the generating database and the number of injected errors stay
   on the benchmark side as the answer key. *)

open Dart
open Dart_datagen
open Dart_relational
open Dart_constraints
open Dart_rand

type kind = Cash_budget | Balance_sheet | Catalog | Quarterly

let wire_name = function
  | Cash_budget -> "cash-budget"
  | Balance_sheet -> "balance-sheet"
  | Catalog -> "catalog"
  | Quarterly -> "quarterly"

let scenario = function
  | Cash_budget -> Budget_scenario.scenario
  | Balance_sheet -> Balance_scenario.scenario
  | Catalog -> Catalog_scenario.scenario
  | Quarterly -> Quarterly_scenario.scenario

type doc = {
  kind : kind;
  label : string;      (* e.g. "cash-budget/8y/2e", names the doc class *)
  html : string;       (* what the program is given *)
  truth : Database.t;  (* the database [html] was made from, uncorrupted *)
  errors : int;        (* cells corrupted before rendering *)
}

let generate kind ~years prng =
  match kind with
  | Cash_budget -> Cash_budget.generate ~years prng
  | Balance_sheet -> Balance_sheet.generate ~years prng
  | Catalog -> Catalog.generate prng
  | Quarterly -> Quarterly.generate ~years prng

let corrupt kind ~errors prng db =
  match kind with
  | Cash_budget -> Cash_budget.corrupt ~errors prng db
  | Balance_sheet -> Balance_sheet.corrupt ~errors prng db
  | Catalog -> Catalog.corrupt ~errors prng db
  | Quarterly -> Quarterly.corrupt ~errors prng db

(* Wrong numbers can cancel out (two digits misread by the same amount in
   a sum and its total): such a document is consistent, and no repair or
   operator could find the error.  A corruption counts only if every
   nonempty subset of its wrong cells violates some ground row. *)
let every_error_visible kind truth log =
  let attr = snd (List.hd (Schema.measures (Database.schema truth))) in
  let wrong = List.map (fun (tid, _, v) -> ((tid, attr), Dart_numeric.Rat.of_int v)) log in
  let rows =
    List.filter
      (fun (r : Ground.row) -> List.exists (fun (_, c) -> List.mem_assoc c wrong) r.terms)
      (Ground.of_constraints truth (scenario kind).Scenario.constraints)
  in
  let right = Ground.db_valuation truth in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: xs ->
      let s = subsets xs in
      s @ List.map (fun t -> x :: t) s
  in
  List.for_all
    (fun s ->
      let value c = match List.assoc_opt c s with Some v -> v | None -> right c in
      s = [] || List.exists (fun r -> not (Ground.row_satisfied value r)) rows)
    (subsets wrong)

let render ?channel ?prng kind db =
  match kind with
  | Cash_budget -> fst (Doc_render.cash_budget_html ?channel ?prng db)
  | Balance_sheet -> fst (Balance_sheet.to_html ?channel ?prng db)
  | Catalog -> Catalog.to_html ?channel ?prng db
  | Quarterly -> Quarterly.to_html ?channel ?prng db

let label kind ~years ~errors =
  match kind with
  | Catalog -> Printf.sprintf "%s/%de" (wire_name kind) errors
  | _ -> Printf.sprintf "%s/%dy/%de" (wire_name kind) years errors

(** [generate] → [corrupt ~errors] (redrawn until every error is
    visible) → clean render: every error is a wrong number in a
    well-formed document, so a card-minimal repair changes at most
    [errors] cells and an operator who knows the truth reaches it. *)
let corrupted kind ~years ~errors prng =
  let truth = generate kind ~years prng in
  let rec draw () =
    let bad, log = corrupt kind ~errors prng truth in
    if every_error_visible kind truth log then (bad, List.length log) else draw ()
  in
  let bad, errors = draw () in
  { kind; label = label kind ~years ~errors; html = render kind bad; truth; errors }

(** A large document read through the OCR noise channel (numeric and
    label corruption at 5% per cell): the acquisition layers' workload. *)
let noisy kind ~years prng =
  let truth = generate kind ~years prng in
  let channel = Dart_ocr.Noise.default_channel in
  { kind; label = Printf.sprintf "%s/%dy/ocr" (wire_name kind) years;
    html = render ~channel ~prng kind truth; truth; errors = 0 }

(** One generator per (workload, seed, index): documents are independent
    of how many were drawn before them. *)
let prng_for ~workload ~seed i =
  Prng.create ((seed * 1_000_003) + (Hashtbl.hash workload * 7919) + i)
