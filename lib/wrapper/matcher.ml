(** Row-pattern matching (paper §6.2).

    A row pattern r matches a table row r_t when they have the same number
    of cells and each cell's content matches the domain required by the
    corresponding pattern cell.  Matching a cell yields a score; the row
    score is the t-norm of cell scores; for each document row the
    best-scoring pattern is chosen and instantiated.  Instantiation binds
    each cell to the most similar valid lexical item msi(r(i), r_t(i)) —
    a first, lexical, form of repair on the input data. *)

open Dart_textdict

type instance_cell = {
  raw : string;       (** cell text as acquired *)
  bound : string;     (** repaired binding (canonical item / normalized value) *)
  cell_score : float;
}

type instance = {
  pattern : Metadata.row_pattern;
  cells : instance_cell array;
  row_score : float;
}

(* Numeric leniency: strip the separators OCR tends to keep, in one pass;
   a string with none is returned uncopied. *)
let clean_numeric s =
  let s = String.trim s in
  let sep c = c = ',' || c = ' ' in
  if not (String.exists sep s) then s
  else begin
    let b = Buffer.create (String.length s) in
    String.iter (fun c -> if not (sep c) then Buffer.add_char b c) s;
    Buffer.contents b
  end

(* Already in [string_of_int] form: an optional '-', then digits with no
   leading zero (and no "-0"). *)
let is_canonical_int s =
  let n = String.length s in
  let d = if n > 0 && s.[0] = '-' then 1 else 0 in
  let rec digits i = i >= n || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1)) in
  n > d && (s.[d] <> '0' || n = 1) && digits d

(** Match one cell against a pattern cell: the bound text and a score.
    The cell is trimmed once; the bound text is that trimmed string
    itself unless binding has to rewrite it (separators, integer form,
    dictionary spelling). *)
let match_cell meta (pc : Metadata.pattern_cell) raw =
  let trimmed = String.trim raw in
  match pc.Metadata.domain with
  | Metadata.Std_string -> Some (trimmed, 1.0)
  | Metadata.Std_integer ->
    let cleaned = clean_numeric trimmed in
    (match int_of_string_opt cleaned with
     | Some n -> Some ((if is_canonical_int cleaned then cleaned else string_of_int n), 1.0)
     | None -> None)
  | Metadata.Std_real ->
    let cleaned = clean_numeric trimmed in
    (match float_of_string_opt cleaned with
     | Some _ -> Some (cleaned, 1.0)
     | None -> None)
  | Metadata.Lexical dom_name ->
    let dict = Metadata.domain_dictionary meta dom_name in
    (match Dictionary.lookup dict trimmed with
     | Some { Dictionary.canonical; score; _ } -> Some (canonical, score)
     | None -> None)

(** Score the hierarchical constraints of an instantiated row: every
    [specializes] arrow must hold between bound items (non-lexical cells
    never carry arrows).  Violated arrows void the match. *)
let hierarchy_ok meta (pattern : Metadata.row_pattern) (bound : string array) =
  let ok = ref true in
  Array.iteri
    (fun i (pc : Metadata.pattern_cell) ->
      match pc.Metadata.specializes with
      | None -> ()
      | Some j ->
        if not (Metadata.is_specialization_of meta ~item:bound.(i) ~ancestor:bound.(j))
        then ok := false)
    pattern.Metadata.cells;
  !ok

(** Try to match a row (list of texts) against one pattern.  Cells bind
    left to right and the first cell that cannot match ends the attempt:
    a header row does not pay for dictionary lookups. *)
let match_pattern meta (pattern : Metadata.row_pattern) (row : string list) : instance option =
  let pcs = pattern.Metadata.cells in
  let n = Array.length pcs in
  if List.length row <> n then None
  else begin
    let cells = Array.make n { raw = ""; bound = ""; cell_score = 0.0 } in
    let rec bind i = function
      | [] -> true
      | raw :: rest ->
        (match match_cell meta pcs.(i) raw with
         | None -> false
         | Some (bound, cell_score) ->
           cells.(i) <- { raw; bound; cell_score };
           bind (i + 1) rest)
    in
    if not (bind 0 row) then None
    else if not (hierarchy_ok meta pattern (Array.map (fun c -> c.bound) cells)) then None
    else begin
      let row_score =
        Metadata.combine_scores meta (Array.fold_right (fun c acc -> c.cell_score :: acc) cells [])
      in
      if row_score < meta.Metadata.min_row_score then None
      else Some { pattern; cells; row_score }
    end
  end

(** Best pattern instance for a row, across all patterns (None if no pattern
    matches at all — e.g. a header or caption row). *)
let best_instance meta (row : string list) : instance option =
  List.fold_left
    (fun best p ->
      match match_pattern meta p row with
      | None -> best
      | Some inst ->
        (match best with
         | Some b when b.row_score >= inst.row_score -> best
         | _ -> Some inst))
    None meta.Metadata.patterns

(** Value bound in the cell whose headline is [name].
    @raise Not_found when the pattern has no such headline. *)
let bound_by_headline inst name =
  let cells = inst.pattern.Metadata.cells in
  let rec go i =
    if i >= Array.length cells then raise Not_found
    else if cells.(i).Metadata.headline = name then inst.cells.(i).bound
    else go (i + 1)
  in
  go 0
