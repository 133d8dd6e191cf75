(** Scenario dictionaries: the terms used in the application context the
    input documents refer to (paper §2), with fuzzy lookup for spelling
    repair of non-numerical strings.

    Lookup normalizes case and whitespace, then finds the closest entry
    within a length-scaled distance budget; the returned score is the
    similarity the wrapper reports on the cell (Example 13). *)

module Tbl = Hashtbl.Make (String)

type t = {
  entries : string Tbl.t; (* normalized -> canonical *)
  index : Bk_tree.t;
}

(* [String.trim] returns its input when there is nothing to trim; lowercase
   only when needed, so an already-normal word is not copied at all. *)
let normalize s =
  let s = String.trim s in
  if String.exists (fun c -> c >= 'A' && c <= 'Z') s then String.lowercase_ascii s else s

let create words =
  let entries = Tbl.create (List.length words) in
  let index = Bk_tree.create () in
  List.iter
    (fun w ->
      let n = normalize w in
      if not (Tbl.mem entries n) then begin
        Tbl.add entries n w;
        Bk_tree.add index n
      end)
    words;
  { entries; index }

let size t = Bk_tree.size t.index

let mem t word = Tbl.mem t.entries (normalize word)

(** Distance budget: longer words tolerate more OCR errors. *)
let default_budget word = max 1 (String.length word / 4)

type match_result = {
  canonical : string;  (** the dictionary form *)
  distance : int;
  score : float;       (** similarity in [0,1] between input and canonical *)
}

(** Closest dictionary entry within [max_distance] (default: length-scaled).
    Exact (normalized) matches return score 1; otherwise the score is
    {!Edit_distance.similarity} of the normalized forms, computed from the
    distance the index already found. *)
let lookup ?max_distance t word =
  let n = normalize word in
  match Tbl.find_opt t.entries n with
  | Some canonical -> Some { canonical; distance = 0; score = 1.0 }
  | None ->
    let budget = match max_distance with Some d -> d | None -> default_budget n in
    (match Bk_tree.best_match t.index ~max_distance:budget n with
     | Some (w, d) ->
       let canonical = Tbl.find t.entries w in
       let longer = Int.max (String.length n) (String.length w) in
       let score = 1.0 -. (float_of_int d /. float_of_int longer) in
       Some { canonical; distance = d; score }
     | None -> None)

(** Repair a string against the dictionary: the canonical form of the best
    match, or the input unchanged when nothing is close enough. *)
let repair ?max_distance t word =
  match lookup ?max_distance t word with
  | Some { canonical; _ } -> canonical
  | None -> word
