(** The wrapping sub-module: HTML document → row pattern instances.

    Tables are located in the parsed document, expanded into logical grids
    (so multi-row/multi-column cells reach every row they are adjacent to,
    as in Example 13), and each logical row is matched against the row
    patterns.  Rows that match no pattern (captions, headers, separators)
    are reported, not silently dropped. *)

open Dart_html
module Obs = Dart_obs.Obs

let m_rows_matched = Obs.Metrics.counter "wrapper.rows_matched"
let m_rows_unmatched = Obs.Metrics.counter "wrapper.rows_unmatched"
let m_cell_repairs = Obs.Metrics.counter "wrapper.cell_repairs"

type row_report = {
  table_index : int;
  row_index : int;
  texts : string list;
  outcome : outcome;
}

and outcome =
  | Matched of Matcher.instance
  | Unmatched

type result = {
  instances : Matcher.instance list; (** in document order *)
  reports : row_report list;         (** one per logical row *)
}

let match_table meta ~table_index (table : Table.t) : row_report list =
  List.init (Table.num_rows table) (fun r ->
      let texts = Table.row_texts table r in
      let outcome =
        match Matcher.best_instance meta texts with
        | Some inst -> Matched inst
        | None -> Unmatched
      in
      { table_index; row_index = r; texts; outcome })

(** Cells the matcher silently repaired while binding: the lexical
    msi-correction of a misread label, or numeric separator cleanup.  This
    is the first repair layer of the pipeline (before the MILP), so its
    volume is worth tracking. *)
let repaired_cells (inst : Matcher.instance) =
  Array.fold_left
    (fun acc (c : Matcher.instance_cell) ->
      if String.equal c.Matcher.bound (String.trim c.Matcher.raw) then acc else acc + 1)
    0 inst.Matcher.cells

(** Run the wrapper over every table of an HTML document. *)
let extract meta (html : string) : result =
  let tables = Table.of_html html in
  let reports =
    List.concat (List.mapi (fun i t -> match_table meta ~table_index:i t) tables)
  in
  let instances =
    List.filter_map
      (fun r -> match r.outcome with Matched i -> Some i | Unmatched -> None)
      reports
  in
  Obs.Metrics.add m_rows_matched (List.length instances);
  Obs.Metrics.add m_rows_unmatched (List.length reports - List.length instances);
  List.iter
    (fun inst ->
      let repaired = repaired_cells inst in
      if repaired > 0 then begin
        Obs.Metrics.add m_cell_repairs repaired;
        if Obs.enabled () then
          Obs.log Debug "wrapper.lexical_repair"
            ~attrs:[ ("cells", Obs.Int repaired) ]
      end)
    instances;
  { instances; reports }

(** Fraction of logical rows that matched some pattern. *)
let match_rate result =
  let total = List.length result.reports in
  if total = 0 then 0.0
  else float_of_int (List.length result.instances) /. float_of_int total

(** Mean row score over matched rows (1.0 = every cell matched exactly). *)
let mean_score result =
  match result.instances with
  | [] -> 0.0
  | insts ->
    List.fold_left (fun acc i -> acc +. i.Matcher.row_score) 0.0 insts
    /. float_of_int (List.length insts)
