(* Fixed-width table rendering for the experiment reports. *)

let hline widths =
  print_string "+";
  List.iter (fun w -> print_string (String.make (w + 2) '-'); print_string "+") widths;
  print_newline ()

let row widths cells =
  print_string "|";
  List.iter2
    (fun w c ->
      let c = if String.length c > w then String.sub c 0 w else c in
      Printf.printf " %-*s |" w c)
    widths cells;
  print_newline ()

(* Print a table with automatic column widths. *)
let table ~title ~header rows =
  Printf.printf "\n== %s ==\n" title;
  let cols = List.length header in
  let widths =
    List.init cols (fun i ->
        List.fold_left
          (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length (List.nth header i))
          rows)
  in
  hline widths;
  row widths header;
  hline widths;
  List.iter (row widths) rows;
  hline widths

let kv ~title pairs =
  Printf.printf "\n== %s ==\n" title;
  let w = List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 pairs in
  List.iter (fun (k, v) -> Printf.printf "  %-*s : %s\n" w k v) pairs

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
let ms seconds = Printf.sprintf "%.2f ms" (1000.0 *. seconds)

(* CPU-time a thunk. *)
let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let note text = Printf.printf "%s\n" text

(* Median of a non-empty list (the mean of the middle two when even). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Scoreboard diffing (bench/main.exe -- diff BASE CURRENT)            *)
(* ------------------------------------------------------------------ *)

module Json = Dart_obs.Obs.Json

let load_scoreboard path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "scoreboard diff: %s\n" msg;
      exit 2
  in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Error msg ->
    Printf.eprintf "scoreboard diff: %s: %s\n" path msg;
    exit 2
  | Ok j ->
    (match j with
     | Json.Obj fields -> (
       match List.assoc_opt "schema" fields with
       | Some (Json.Str "dart-scoreboard/1") -> j
       | Some (Json.Str other) ->
         Printf.eprintf "scoreboard diff: %s has unsupported schema %S\n" path
           other;
         exit 2
       | _ ->
         Printf.eprintf "scoreboard diff: %s is not a scoreboard (no schema)\n"
           path;
         exit 2)
     | _ ->
       Printf.eprintf "scoreboard diff: %s is not a JSON object\n" path;
       exit 2)

let member k = function
  | Json.Obj fields -> List.assoc_opt k fields
  | _ -> None

(* Structural diff of the deterministic subtree: every mismatch is
   reported with its path.  Key order is part of the contract (the
   scoreboard writer emits a fixed order), but we compare by key so a
   reordered baseline produced by hand-editing still diffs sensibly. *)
let rec json_diff path a b acc =
  match (a, b) with
  | Json.Obj fa, Json.Obj fb ->
    let keys =
      List.sort_uniq compare (List.map fst fa @ List.map fst fb)
    in
    List.fold_left
      (fun acc k ->
        let p = if path = "" then k else path ^ "." ^ k in
        match (List.assoc_opt k fa, List.assoc_opt k fb) with
        | Some va, Some vb -> json_diff p va vb acc
        | Some _, None -> (p ^ ": missing in current") :: acc
        | None, Some _ -> (p ^ ": missing in baseline") :: acc
        | None, None -> acc)
      acc keys
  | Json.List la, Json.List lb ->
    if List.length la <> List.length lb then
      Printf.sprintf "%s: list length %d -> %d" path (List.length la)
        (List.length lb)
      :: acc
    else
      List.fold_left
        (fun (i, acc) (va, vb) ->
          (i + 1, json_diff (Printf.sprintf "%s[%d]" path i) va vb acc))
        (0, acc) (List.combine la lb)
      |> snd
  | _ ->
    if a = b then acc
    else
      Printf.sprintf "%s: %s -> %s" path (Json.to_string a) (Json.to_string b)
      :: acc

(* Warn (never fail) when a timing moved by more than [tolerance] of the
   baseline — wall clock is machine- and load-dependent. *)
let timing_warnings tolerance base cur =
  let rec walk path a b acc =
    match (a, b) with
    | Json.Obj fa, Json.Obj fb ->
      List.fold_left
        (fun acc (k, va) ->
          match List.assoc_opt k fb with
          | Some vb ->
            walk (if path = "" then k else path ^ "." ^ k) va vb acc
          | None -> acc)
        acc fa
    | Json.Float fa, Json.Float fb ->
      let base_ms = Float.max fa 1.0 in
      if Float.abs (fb -. fa) /. base_ms > tolerance then
        Printf.sprintf "%s: %.1f ms -> %.1f ms (%+.0f%%)" path fa fb
          (100.0 *. (fb -. fa) /. base_ms)
        :: acc
      else acc
    | _ -> acc
  in
  walk "" base cur []

(* Compare two scoreboards: exit 0 when the deterministic sections agree
   byte-for-byte in content (timings only ever warn), 1 on drift. *)
let scoreboard_diff base_path cur_path =
  let base = load_scoreboard base_path in
  let cur = load_scoreboard cur_path in
  let det j = Option.value ~default:(Json.Obj []) (member "deterministic" j) in
  let tim j = Option.value ~default:(Json.Obj []) (member "timings" j) in
  let drift = List.rev (json_diff "deterministic" (det base) (det cur) []) in
  let warns = List.rev (timing_warnings 0.5 (tim base) (tim cur)) in
  List.iter (fun w -> Printf.printf "warn: timing %s\n" w) warns;
  match drift with
  | [] ->
    Printf.printf
      "scoreboard diff: deterministic sections identical (%s vs %s)\n"
      base_path cur_path;
    0
  | ds ->
    List.iter (fun d -> Printf.printf "DRIFT: %s\n" d) ds;
    Printf.printf
      "scoreboard diff: %d deterministic change(s) between %s and %s\n"
      (List.length ds) base_path cur_path;
    1
