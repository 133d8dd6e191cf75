(* Bench-side spans.  The benchmark times its own calls into each
   layer's public functions; spans are kept in memory and written when
   the run ends, as a Chrome trace_event file (loads in Perfetto) plus a
   self-time table.

   Two kinds of span:
   - [span] wraps a call on the product path; nesting is tracked, so a
     span's self time is its duration minus its children's.
   - [probe] times a call made only to attribute time (e.g. re-solving a
     component's MILP to learn how much of [card_minimal] it was).  A
     probe runs outside its parent's interval but is charged to it as a
     child in the self-time table; in the trace it sits on its own lane. *)

type span = {
  id : int;
  name : string;
  parent : int;      (* -1 at the root *)
  start_us : float;
  mutable dur_us : float;
  lane : int;        (* 0 = product path, 1 = probes *)
}

let enabled = ref false
let spans : span list ref = ref [] (* reverse order *)
let stack : span list ref = ref []
let next_id = ref 0
let max_spans = 200_000

let now_us () = Dart_obs.Obs.now_us ()

(* Spans past [max_spans] are timed but not kept. *)
let record ~name ~parent ~lane ~start_us ~dur_us =
  let s = { id = !next_id; name; parent; start_us; dur_us; lane } in
  incr next_id;
  if s.id < max_spans then spans := s :: !spans;
  s

let current () = match !stack with p :: _ -> p.id | [] -> -1

let span name f =
  if not !enabled then f ()
  else begin
    let start_us = now_us () in
    let s = record ~name ~parent:(current ()) ~lane:0 ~start_us ~dur_us:0.0 in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        stack := List.tl !stack;
        s.dur_us <- now_us () -. start_us)
  end

(** Time [f] and charge it to the span [parent] (an id from {!last}). *)
let probe ~parent name f =
  let start_us = now_us () in
  let r = f () in
  let dur_us = now_us () -. start_us in
  if !enabled then ignore (record ~name ~parent ~lane:1 ~start_us ~dur_us);
  (r, dur_us /. 1000.0)

(** Record an interval measured elsewhere (e.g. a wire request from its
    due time to its reply). *)
let interval ~name ~start_us ~dur_us =
  if !enabled then ignore (record ~name ~parent:(current ()) ~lane:0 ~start_us ~dur_us)

(** Id of the most recently opened span named [name] — the parent a
    probe attributes to. *)
let last name =
  match List.find_opt (fun s -> s.name = name) !spans with
  | Some s -> s.id
  | None -> -1

let all () = List.rev !spans

(** Per span name: calls, total and self time in ms, and whether the
    spans belong to a tree rooted at a span named [root] (an op).  A
    span's self time is its duration minus every child's (probes
    included). *)
let self_times ~root =
  let all = all () in
  let by_id = Hashtbl.create 1024 in
  let child_us = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then
        Hashtbl.replace child_us s.parent
          (s.dur_us +. Option.value ~default:0.0 (Hashtbl.find_opt child_us s.parent)))
    all;
  let rec in_op s =
    if s.name = root then true
    else match Hashtbl.find_opt by_id s.parent with Some p -> in_op p | None -> false
  in
  let rows = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      let self = s.dur_us -. Option.value ~default:0.0 (Hashtbl.find_opt child_us s.id) in
      match Hashtbl.find_opt rows s.name with
      | Some (n, tot, slf, inside) ->
        Hashtbl.replace rows s.name (n + 1, tot +. s.dur_us, slf +. self, inside)
      | None ->
        order := s.name :: !order;
        Hashtbl.add rows s.name (1, s.dur_us, self, in_op s))
    all;
  List.rev_map
    (fun name ->
      let n, tot, slf, inside = Hashtbl.find rows name in
      (name, n, tot /. 1000.0, slf /. 1000.0, inside))
    !order

(** Time per op of the spans named [name], self time or (with
    [~self:false]) whole durations; [0.0] if there are none. *)
let ms_per_op ?(self = true) ~ops name =
  match List.find_opt (fun (n, _, _, _, _) -> n = name) (self_times ~root:"op") with
  | Some (_, _, tot, slf, _) when ops > 0 -> (if self then slf else tot) /. float_of_int ops
  | _ -> 0.0

(** The self-time table as text.  Each row's share is of the summed
    duration of the [root] spans (the ops); the last line compares the
    self times summed over the op trees with that wall clock.  Rows
    marked [*] lie outside every op tree (stand-alone measurements) and
    are not summed. *)
let self_time_table ~root =
  let rows = self_times ~root in
  let wall =
    List.fold_left (fun acc (n, _, tot, _, _) -> if n = root then acc +. tot else acc) 0.0 rows
  in
  let attributed =
    List.fold_left (fun acc (_, _, _, s, inside) -> if inside then acc +. s else acc) 0.0 rows
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-28s %8s %12s %12s %7s\n" "layer" "calls" "total_ms" "self_ms" "share";
  List.iter
    (fun (name, n, tot, slf, inside) ->
      Printf.bprintf buf "%-28s %8d %12.2f %12.2f %6.1f%%\n"
        (if inside then name else "*" ^ name) n tot slf
        (if wall > 0.0 then 100.0 *. slf /. wall else 0.0))
    rows;
  Printf.bprintf buf "%-28s %8s %12.2f %12.2f %6.1f%%\n" "(sum over op trees)" "" wall
    attributed
    (if wall > 0.0 then 100.0 *. attributed /. wall else 0.0);
  (Buffer.contents buf, wall, attributed)

let chrome_json () =
  let module J = Dart_obs.Obs.Json in
  let pid = Unix.getpid () in
  let meta lane name =
    J.Obj
      [ ("name", J.Str "thread_name"); ("ph", J.Str "M"); ("pid", J.Int pid);
        ("tid", J.Int lane); ("args", J.Obj [ ("name", J.Str name) ]) ]
  in
  let ev s =
    J.Obj
      [ ("name", J.Str s.name); ("cat", J.Str (if s.lane = 0 then "op" else "probe"));
        ("ph", J.Str "X"); ("ts", J.Float s.start_us); ("dur", J.Float s.dur_us);
        ("pid", J.Int pid); ("tid", J.Int s.lane);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]) ]
  in
  J.to_string
    (J.Obj
       [ ("traceEvents",
          J.List (meta 0 "product path" :: meta 1 "attribution probes" :: List.map ev (all ())));
         ("displayTimeUnit", J.Str "ms") ])
