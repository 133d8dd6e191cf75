(** Observability: spans, metrics, event sinks.  See the interface for the
    design; implementation notes:

    - the "no sink" fast path must not allocate: [span]/[log] first match on
      the sink list and bail out before touching the clock or the stack;
    - sinks are plain records of closures so tests can inject collectors;
    - the metrics registry is a string-keyed hashtable of mutable cells;
      handles returned by [counter]/[gauge]/[histogram] alias those cells,
      so updates are single stores and [reset] zeroes in place. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | other -> (
    match int_of_string_opt other with
    | Some 0 -> Ok Debug
    | Some 1 -> Ok Info
    | Some 2 -> Ok Warn
    | Some 3 -> Ok Error
    | _ -> Result.Error (Printf.sprintf "unknown log level %S (debug|info|warn|error)" s))

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let min_level = ref Info
let set_level l = min_level := l
let current_level () = !min_level

type value = Int of int | Float of float | Str of string | Bool of bool

type attrs = (string * value) list

type event =
  | Span of {
      name : string;
      attrs : attrs;
      start_us : float;
      dur_us : float;
      depth : int;
      trace_id : string;
      span_id : string;
      parent_id : string;  (* "" = root *)
      did : int;           (* domain id the span ran on *)
    }
  | Log of {
      level : level;
      name : string;
      attrs : attrs;
      ts_us : float;
      depth : int;
      trace_id : string;
      did : int;
    }

let event_ts_us = function Span { start_us; _ } -> start_us | Log { ts_us; _ } -> ts_us
let event_trace_id = function Span { trace_id; _ } -> trace_id | Log { trace_id; _ } -> trace_id

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let float_repr f =
    if Float.is_nan f || Float.abs f = Float.infinity
    then "null" (* JSON has no NaN/inf; metrics never produce them *)
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> Buffer.add_string buf (escape s)
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (escape k);
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  (* Strict recursive-descent parser. *)
  exception Parse_error of int * string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
      | None -> fail (Printf.sprintf "expected %C, found end of input" c)
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin pos := !pos + l; v end
      else fail (Printf.sprintf "invalid literal (expected %s)" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else begin
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents buf
          | '\\' ->
            (if !pos >= n then fail "unterminated escape";
             let e = s.[!pos] in
             advance ();
             (match e with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (match int_of_string_opt ("0x" ^ hex) with
                 | None -> fail "invalid \\u escape"
                 | Some cp ->
                   (* Encode the code point as UTF-8 (surrogates land as-is:
                      good enough for round-tripping our own output, which
                      only \u-escapes control characters). *)
                   if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                   else if cp < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                   end)
              | c -> fail (Printf.sprintf "invalid escape \\%C" c)));
            go ()
          | c -> Buffer.add_char buf c; go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      let rec digits () =
        match peek () with
        | Some ('0' .. '9') -> advance (); digits ()
        | _ -> ()
      in
      digits ();
      (match peek () with
       | Some '.' -> is_float := true; advance (); digits ()
       | _ -> ());
      (match peek () with
       | Some ('e' | 'E') ->
         is_float := true;
         advance ();
         (match peek () with Some ('+' | '-') -> advance () | _ -> ());
         digits ()
       | _ -> ());
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "invalid number %S" text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "invalid number %S" text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' in object"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' in array"
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage after JSON value";
      v
    with
    | v -> Ok v
    | exception Parse_error (p, msg) ->
      Result.Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)
end

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let json_of_attrs attrs = Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

let json_of_event = function
  | Span { name; attrs; start_us; dur_us; depth; trace_id; span_id; parent_id; did } ->
    Json.Obj
      [ ("type", Json.Str "span"); ("name", Json.Str name);
        ("ts_us", Json.Float start_us); ("dur_us", Json.Float dur_us);
        ("depth", Json.Int depth); ("trace_id", Json.Str trace_id);
        ("span_id", Json.Str span_id); ("parent_id", Json.Str parent_id);
        ("did", Json.Int did); ("attrs", json_of_attrs attrs) ]
  | Log { level; name; attrs; ts_us; depth; trace_id; did } ->
    Json.Obj
      [ ("type", Json.Str "log"); ("level", Json.Str (level_to_string level));
        ("name", Json.Str name); ("ts_us", Json.Float ts_us);
        ("depth", Json.Int depth); ("trace_id", Json.Str trace_id);
        ("did", Json.Int did); ("attrs", json_of_attrs attrs) ]

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* Monotonic-safe wall clock.  [Unix.gettimeofday] can jump backwards
   under NTP adjustment, which would make span durations and
   [Solver.stats.solve_ms] negative.  We keep the epoch basis (sinks
   render human-readable timestamps from it) but never let the reported
   time decrease: the last value handed out is kept in an [Atomic] (an
   integer microsecond count, so compare-and-set compares by value, not
   by boxed-float identity) and each reading is clamped to it.  Deltas
   between two [now_us] readings are therefore always >= 0, from any
   domain. *)
let last_us = Atomic.make 0

let now_us () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let rec clamp () =
    let prev = Atomic.get last_us in
    if t <= prev then prev
    else if Atomic.compare_and_set last_us prev t then t
    else clamp ()
  in
  float_of_int (clamp ())

let now_ms () = now_us () /. 1e3

let elapsed_us ~since = Float.max 0.0 (now_us () -. since)
let elapsed_ms ~since = Float.max 0.0 (now_ms () -. since)

(* ------------------------------------------------------------------ *)
(* Trace/span identity                                                 *)
(* ------------------------------------------------------------------ *)

(* 16-hex-digit ids from a splitmix64 stream over an atomic counter.
   The seed mixes boot time and pid so two processes sharing a trace
   (client and server) cannot collide on span ids; the counter makes ids
   unique across domains without coordination beyond one fetch-and-add. *)
let id_counter = Atomic.make 1

let id_seed =
  Int64.logxor
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.mul (Int64.of_int (Unix.getpid ())) 0x9E3779B97F4A7C15L)

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let fresh_id () =
  let n = Atomic.fetch_and_add id_counter 1 in
  Printf.sprintf "%016Lx" (splitmix64 (Int64.add id_seed (Int64.of_int n)))

let did () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = { emit : event -> unit; close : unit -> unit }

(* The sink list is read on every instrumented call (the "is observability
   on?" check) and mutated rarely.  Reads go through a plain ref — an
   immutable list value is swapped in atomically enough for the OCaml
   memory model (no tearing) — while mutations and event emission are
   serialized by [sink_mu] so concurrent domains never interleave writes
   inside one sink (text lines, JSONL records, the Chrome trace array). *)
let sinks : sink list ref = ref []
let sink_mu = Mutex.create ()

let enabled () = match !sinks with [] -> false | _ :: _ -> true

let with_sink_mu f =
  Mutex.lock sink_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink_mu) f

let install s = with_sink_mu (fun () -> sinks := !sinks @ [ s ])

let uninstall s =
  let close =
    with_sink_mu (fun () ->
        if List.memq s !sinks then begin
          sinks := List.filter (fun s' -> s' != s) !sinks;
          true
        end
        else false)
  in
  if close then s.close ()

let close_sinks () =
  let ss = with_sink_mu (fun () -> let ss = !sinks in sinks := []; ss) in
  List.iter (fun s -> s.close ()) ss

let emit ev =
  with_sink_mu (fun () -> List.iter (fun s -> s.emit ev) !sinks)

let pp_attr_text (k, v) =
  let sv =
    match v with
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%.3f" f
    | Str s -> s
    | Bool b -> string_of_bool b
  in
  Printf.sprintf " %s=%s" k sv

let text_sink ?(min_level = Info) oc =
  let stamp ts_us =
    let t = ts_us /. 1e6 in
    let tm = Unix.localtime t in
    Printf.sprintf "%02d:%02d:%02d.%03d" tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
      (int_of_float (Float.rem (t *. 1000.0) 1000.0))
  in
  let emit = function
    | Log { level; name; attrs; ts_us; depth; _ } ->
      if severity level >= severity min_level then begin
        Printf.fprintf oc "[%s] %-5s %s%s%s\n" (stamp ts_us)
          (String.uppercase_ascii (level_to_string level))
          (String.make (2 * depth) ' ') name
          (String.concat "" (List.map pp_attr_text attrs));
        flush oc
      end
    | Span { name; attrs; start_us; dur_us; depth; _ } ->
      if severity Debug >= severity min_level then begin
        Printf.fprintf oc "[%s] SPAN  %s%s %.3fms%s\n" (stamp start_us)
          (String.make (2 * depth) ' ') name (dur_us /. 1e3)
          (String.concat "" (List.map pp_attr_text attrs));
        flush oc
      end
  in
  { emit; close = (fun () -> try flush oc with Sys_error _ -> ()) }

let chrome_trace_sink oc =
  output_string oc "[";
  let first = ref true in
  let pid = Unix.getpid () in
  let emit_json j =
    if !first then first := false else output_string oc ",\n";
    output_string oc (Json.to_string j)
  in
  (* Each domain gets its own tid lane so pool concurrency is visible in
     Perfetto; a thread_name metadata record labels the lane the first
     time a domain emits. *)
  let seen_tids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let lane tid =
    if not (Hashtbl.mem seen_tids tid) then begin
      Hashtbl.add seen_tids tid ();
      emit_json
        (Json.Obj
           [ ("name", Json.Str "thread_name"); ("ph", Json.Str "M");
             ("pid", Json.Int pid); ("tid", Json.Int tid);
             ("args", Json.Obj [ ("name", Json.Str ("domain-" ^ string_of_int tid)) ]) ])
    end
  in
  let emit = function
    | Span { name; attrs; start_us; dur_us; trace_id; did; _ } ->
      lane did;
      emit_json
        (Json.Obj
           [ ("name", Json.Str name); ("ph", Json.Str "X"); ("cat", Json.Str "dart");
             ("ts", Json.Float start_us); ("dur", Json.Float dur_us);
             ("pid", Json.Int pid); ("tid", Json.Int did);
             ("args", json_of_attrs (("trace_id", Str trace_id) :: attrs)) ])
    | Log { level; name; attrs; ts_us; trace_id; did; _ } ->
      lane did;
      emit_json
        (Json.Obj
           [ ("name", Json.Str name); ("ph", Json.Str "i"); ("cat", Json.Str "dart");
             ("ts", Json.Float ts_us); ("pid", Json.Int pid); ("tid", Json.Int did);
             ("s", Json.Str "t");
             ("args",
              json_of_attrs
                (("level", Str (level_to_string level))
                 :: ("trace_id", Str trace_id) :: attrs)) ])
  in
  let close () =
    output_string oc "]\n";
    try flush oc with Sys_error _ -> ()
  in
  { emit; close }

let memory_sink () =
  let acc = ref [] in
  let emit ev = acc := ev :: !acc in
  ({ emit; close = (fun () -> ()) }, fun () -> List.rev !acc)

(* The flight recorder keeps one bounded ring per domain, so a busy pool
   cannot evict another domain's recent history.  Emission is already
   serialized by [sink_mu]; the recorder's own mutex only exists so
   [snapshot] (called from a connection thread while workers keep
   emitting) reads a consistent ring. *)
let flight_recorder ?(capacity = 256) () =
  let capacity = max 1 capacity in
  let mu = Mutex.create () in
  let rings : (int, event option array * int ref) Hashtbl.t = Hashtbl.create 8 in
  let emit ev =
    let d = did () in
    Mutex.lock mu;
    let buf, next =
      match Hashtbl.find_opt rings d with
      | Some r -> r
      | None ->
        let r = (Array.make capacity None, ref 0) in
        Hashtbl.add rings d r;
        r
    in
    buf.(!next mod capacity) <- Some ev;
    incr next;
    Mutex.unlock mu
  in
  let snapshot () =
    Mutex.lock mu;
    let per_ring =
      Hashtbl.fold
        (fun _ (buf, next) acc ->
          let n = min !next capacity in
          let start = !next - n in
          let rec go i acc =
            if i >= n then List.rev acc
            else
              match buf.((start + i) mod capacity) with
              | Some ev -> go (i + 1) (ev :: acc)
              | None -> go (i + 1) acc
          in
          go 0 [] :: acc)
        rings []
    in
    Mutex.unlock mu;
    (* Each ring is already oldest-first; a stable sort keeps emission
       order for events that share a (microsecond) timestamp. *)
    List.stable_sort
      (fun a b -> compare (event_ts_us a) (event_ts_us b))
      (List.concat per_ring)
  in
  ({ emit; close = (fun () -> ()) }, snapshot)

(* ------------------------------------------------------------------ *)
(* Spans and logs                                                      *)
(* ------------------------------------------------------------------ *)

type frame = {
  fname : string;
  fstart : float;
  mutable fattrs : attrs;
  fdepth : int;
  ftrace : string;  (* trace id inherited from parent / ambient context *)
  fspan : string;   (* this span's own id *)
  fparent : string; (* parent span id; "" = trace root *)
}

(* One span stack per domain: spans opened by concurrent worker domains
   nest independently instead of corrupting a shared stack.  Threads
   within one domain share its stack — fine for the server, whose
   connection threads only run leaf spans. *)
let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let add_attr k v =
  match !(stack ()) with
  | [] -> ()
  | fr :: _ -> fr.fattrs <- (k, v) :: fr.fattrs

module Trace = struct
  type context = { trace_id : string; parent_span_id : string }

  (* The ambient context seeds trace identity for spans opened with an
     empty stack — it is what carries a trace across a domain hop (pool
     submit) or a process hop (the wire envelope).  Per-domain like the
     stack itself. *)
  let ambient_key : context option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let ambient () = Domain.DLS.get ambient_key

  let fresh_trace_id () = fresh_id ()
  let fresh_span_id () = fresh_id ()

  let current () =
    match !(stack ()) with
    | fr :: _ -> Some { trace_id = fr.ftrace; parent_span_id = fr.fspan }
    | [] -> !(ambient ())

  let with_context ctx f =
    let cell = ambient () in
    let saved = !cell in
    cell := ctx;
    Fun.protect ~finally:(fun () -> cell := saved) f
end

(* Trace identity for a new root-of-stack event: parent is the innermost
   open span if any, else the ambient context, else a fresh trace. *)
let identity_for_new stack =
  match !stack with
  | fr :: _ -> (fr.ftrace, fr.fspan)
  | [] -> (
    match !(Trace.ambient ()) with
    | Some c -> (c.Trace.trace_id, c.Trace.parent_span_id)
    | None -> (fresh_id (), ""))

let span ?(attrs = []) name f =
  match !sinks with
  | [] -> f ()
  | _ :: _ ->
    let stack = stack () in
    let trace_id, parent_id = identity_for_new stack in
    let fr =
      { fname = name; fstart = now_us (); fattrs = List.rev attrs;
        fdepth = List.length !stack; ftrace = trace_id; fspan = fresh_id ();
        fparent = parent_id }
    in
    stack := fr :: !stack;
    let finish () =
      (match !stack with fr' :: tl when fr' == fr -> stack := tl | _ -> ());
      emit
        (Span
           { name = fr.fname; attrs = List.rev fr.fattrs; start_us = fr.fstart;
             dur_us = elapsed_us ~since:fr.fstart; depth = fr.fdepth;
             trace_id = fr.ftrace; span_id = fr.fspan; parent_id = fr.fparent;
             did = did () })
    in
    (match f () with
     | v -> finish (); v
     | exception e ->
       fr.fattrs <- ("error", Str (Printexc.to_string e)) :: fr.fattrs;
       finish ();
       raise e)

let emit_span ?(attrs = []) ~start_us ~dur_us name =
  match !sinks with
  | [] -> ()
  | _ :: _ ->
    let stack = stack () in
    let trace_id, parent_id = identity_for_new stack in
    emit
      (Span
         { name; attrs; start_us; dur_us; depth = List.length !stack;
           trace_id; span_id = fresh_id (); parent_id; did = did () })

let log ?(attrs = []) level name =
  match !sinks with
  | [] -> ()
  | _ :: _ ->
    if severity level >= severity !min_level then begin
      let stack = stack () in
      let trace_id =
        match !stack with
        | fr :: _ -> fr.ftrace
        | [] -> (
          match !(Trace.ambient ()) with
          | Some c -> c.Trace.trace_id
          | None -> "" (* outside any trace *))
      in
      emit
        (Log
           { level; name; attrs; ts_us = now_us (); depth = List.length !stack;
             trace_id; did = did () })
    end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* Counters and gauges are atomics, so worker domains can bump them
     without locks; histograms mutate several fields per observation and
     take [mu].  Registration, snapshot and reset also take [mu] so a
     snapshot never sees a half-registered metric. *)
  let now_ms_impl = now_ms (* the [?now_ms] labels below shadow it *)
  type counter = int Atomic.t
  type gauge = float Atomic.t

  (* One retained worst-in-window observation for a histogram bucket:
     enough to hop from a quantile to the trace that produced it. *)
  type exemplar = {
    ex_le : float;              (* the bucket's upper bound; +inf = overflow *)
    ex_value : float;
    ex_trace_id : string;
    ex_ts_ms : float;
  }

  type histogram = {
    bounds : float array;       (* inclusive upper bounds, increasing *)
    counts : int array;         (* length = Array.length bounds + 1 (overflow) *)
    mutable hsum : float;
    mutable hcount : int;
    hexemplars : exemplar option array; (* one slot per bucket, incl. overflow *)
    hmu : Mutex.t;
  }

  (* Info metrics: a constant-1 sample whose labels carry build/version
     facts ([dart_build_info{version="..."} 1] style). *)
  type metric =
    | C of counter
    | G of gauge
    | H of histogram
    | I of (string * string) list Atomic.t

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 32
  let order : string list ref = ref [] (* reverse registration order *)
  let mu = Mutex.create ()

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let register name m =
    Hashtbl.add registry name m;
    order := name :: !order

  let kind_error name =
    invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered with another kind" name)

  let counter name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (C c) -> c
        | Some _ -> kind_error name
        | None ->
          let c = Atomic.make 0 in
          register name (C c);
          c)

  let incr c = ignore (Atomic.fetch_and_add c 1)
  let add c n = ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c

  let gauge name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (G g) -> g
        | Some _ -> kind_error name
        | None ->
          let g = Atomic.make 0.0 in
          register name (G g);
          g)

  let set g v = Atomic.set g v
  let gauge_value g = Atomic.get g

  let default_buckets =
    [| 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 |]

  let histogram ?(buckets = default_buckets) name =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (H h) -> h
        | Some _ -> kind_error name
        | None ->
          let bounds = Array.copy buckets in
          Array.iteri
            (fun i b -> if i > 0 && b <= bounds.(i - 1) then
                invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing")
            bounds;
          let h =
            { bounds; counts = Array.make (Array.length bounds + 1) 0;
              hsum = 0.0; hcount = 0;
              hexemplars = Array.make (Array.length bounds + 1) None;
              hmu = Mutex.create () }
          in
          register name (H h);
          h)

  let slot_of h v =
    let nb = Array.length h.bounds in
    let rec slot i = if i >= nb then nb else if v <= h.bounds.(i) then i else slot (i + 1) in
    slot 0

  let observe h v =
    let i = slot_of h v in
    Mutex.lock h.hmu;
    h.counts.(i) <- h.counts.(i) + 1;
    h.hsum <- h.hsum +. v;
    h.hcount <- h.hcount + 1;
    Mutex.unlock h.hmu

  (* Exemplars age out so a quiet histogram does not pin a stale trace id
     forever: within the window the worst (largest) observation per
     bucket wins; past it any fresh observation replaces the slot. *)
  let exemplar_window_ms = 60_000.0

  let observe_ex ?now_ms ?trace_id h v =
    let i = slot_of h v in
    Mutex.lock h.hmu;
    h.counts.(i) <- h.counts.(i) + 1;
    h.hsum <- h.hsum +. v;
    h.hcount <- h.hcount + 1;
    (match trace_id with
     | Some tid when tid <> "" ->
       let now = match now_ms with Some n -> n | None -> now_ms_impl () in
       let fresh =
         { ex_le =
             (if i < Array.length h.bounds then h.bounds.(i) else Float.infinity);
           ex_value = v; ex_trace_id = tid; ex_ts_ms = now }
       in
       (match h.hexemplars.(i) with
        | None -> h.hexemplars.(i) <- Some fresh
        | Some old ->
          if now -. old.ex_ts_ms > exemplar_window_ms || v >= old.ex_value then
            h.hexemplars.(i) <- Some fresh)
     | _ -> ());
    Mutex.unlock h.hmu

  let exemplars ?now_ms h =
    let now = match now_ms with Some n -> n | None -> now_ms_impl () in
    Mutex.lock h.hmu;
    let live =
      Array.fold_right
        (fun e acc ->
          match e with
          | Some e when now -. e.ex_ts_ms <= exemplar_window_ms -> e :: acc
          | _ -> acc)
        h.hexemplars []
    in
    Mutex.unlock h.hmu;
    live

  let bucket_counts h =
    Mutex.lock h.hmu;
    let c = Array.copy h.counts in
    Mutex.unlock h.hmu;
    c

  let histogram_bounds h = Array.copy h.bounds

  let info name labels =
    locked (fun () ->
        match Hashtbl.find_opt registry name with
        | Some (I r) -> Atomic.set r labels
        | Some _ -> kind_error name
        | None -> register name (I (Atomic.make labels)))

  let histogram_sum h =
    Mutex.lock h.hmu;
    let s = h.hsum in
    Mutex.unlock h.hmu;
    s

  let histogram_count h =
    Mutex.lock h.hmu;
    let c = h.hcount in
    Mutex.unlock h.hmu;
    c

  (* Quantile estimate from bucket counts with linear interpolation inside
     the bucket the rank falls in (the standard Prometheus histogram_quantile
     scheme).  The first bucket interpolates from 0; the overflow bucket has
     no upper bound so its answer clamps to the last finite bound. *)
  let quantile h q =
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let counts = bucket_counts h in
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0.0
    else begin
      let rank = q *. float_of_int total in
      let nb = Array.length h.bounds in
      let rec find i cum =
        if i >= nb then nb
        else
          let cum' = cum + counts.(i) in
          if float_of_int cum' >= rank && counts.(i) > 0 then i
          else find (i + 1) cum'
      in
      let i = find 0 0 in
      if i >= nb then if nb = 0 then 0.0 else h.bounds.(nb - 1)
      else begin
        let lower = if i = 0 then 0.0 else h.bounds.(i - 1) in
        let upper = h.bounds.(i) in
        let prev_cum = ref 0 in
        for j = 0 to i - 1 do prev_cum := !prev_cum + counts.(j) done;
        lower
        +. (upper -. lower)
           *. ((rank -. float_of_int !prev_cum) /. float_of_int counts.(i))
      end
    end

  (* Prometheus text exposition (format version 0.0.4).  Metric names are
     sanitized (dots and other invalid characters become underscores);
     histograms render cumulative [_bucket{le=...}] series plus [_sum] /
     [_count] and derived [_p50]/[_p95]/[_p99] gauges so a plain curl shows
     latency quantiles without PromQL. *)
  let sanitize name =
    let b = Bytes.of_string name in
    Bytes.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
        | _ -> Bytes.set b i '_')
      b;
    let s = Bytes.to_string b in
    if s = "" then "_"
    else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

  (* Prometheus label-value escaping: backslash, double quote and
     newline are the only characters the text format requires escaping. *)
  let escape_label_value s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let render_labels labels =
    match labels with
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
             labels)
      ^ "}"

  let pm_num f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let prometheus () =
    let buf = Buffer.create 2048 in
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let entries =
      locked (fun () ->
          List.filter_map
            (fun n ->
              Option.map (fun m -> (n, m)) (Hashtbl.find_opt registry n))
            (List.rev !order))
    in
    List.iter
      (fun (n, m) ->
        let pn = sanitize n in
        match m with
        | C c ->
          p "# TYPE %s counter\n" pn;
          p "%s %d\n" pn (Atomic.get c)
        | G g ->
          p "# TYPE %s gauge\n" pn;
          p "%s %s\n" pn (pm_num (Atomic.get g))
        | H h ->
          Mutex.lock h.hmu;
          let counts = Array.copy h.counts in
          let hsum = h.hsum and hcount = h.hcount in
          Mutex.unlock h.hmu;
          p "# TYPE %s histogram\n" pn;
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + counts.(i);
              p "%s_bucket{le=\"%s\"} %d\n" pn (pm_num b) !cum)
            h.bounds;
          cum := !cum + counts.(Array.length counts - 1);
          p "%s_bucket{le=\"+Inf\"} %d\n" pn !cum;
          p "%s_sum %s\n" pn (pm_num hsum);
          p "%s_count %d\n" pn hcount;
          List.iter
            (fun (suffix, q) ->
              p "# TYPE %s_%s gauge\n" pn suffix;
              p "%s_%s %s\n" pn suffix (pm_num (quantile h q)))
            [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]
        | I r ->
          p "# TYPE %s gauge\n" pn;
          p "%s%s 1\n" pn (render_labels (Atomic.get r)))
      entries;
    Buffer.contents buf

  let exemplars_json ?now_ms () =
    let now = match now_ms with Some n -> n | None -> now_ms_impl () in
    let entries =
      locked (fun () ->
          List.filter_map
            (fun n ->
              match Hashtbl.find_opt registry n with
              | Some (H h) -> Some (n, h)
              | _ -> None)
            (List.rev !order))
    in
    Json.Obj
      (List.filter_map
         (fun (n, h) ->
           match exemplars ~now_ms:now h with
           | [] -> None
           | live ->
             Some
               ( n,
                 Json.List
                   (List.map
                      (fun e ->
                        Json.Obj
                          [ ("le",
                             if e.ex_le = Float.infinity then Json.Str "+inf"
                             else Json.Float e.ex_le);
                            ("value", Json.Float e.ex_value);
                            ("trace_id", Json.Str e.ex_trace_id);
                            ("ts_ms", Json.Float e.ex_ts_ms) ])
                      live) ))
         entries)

  let snapshot () =
    locked @@ fun () ->
    let names = List.rev !order in
    let pick f = List.filter_map f names in
    let counters =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (C c) -> Some (n, Json.Int (Atomic.get c))
          | _ -> None)
    in
    let gauges =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (G g) -> Some (n, Json.Float (Atomic.get g))
          | _ -> None)
    in
    let histograms =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (H h) ->
            Mutex.lock h.hmu;
            let counts = Array.copy h.counts in
            let hsum = h.hsum and hcount = h.hcount in
            Mutex.unlock h.hmu;
            let buckets =
              List.init (Array.length counts) (fun i ->
                  Json.Obj
                    [ ("le",
                       if i < Array.length h.bounds then Json.Float h.bounds.(i)
                       else Json.Str "+inf");
                      ("count", Json.Int counts.(i)) ])
            in
            Some
              (n,
               Json.Obj
                 [ ("buckets", Json.List buckets); ("sum", Json.Float hsum);
                   ("count", Json.Int hcount) ])
          | _ -> None)
    in
    let infos =
      pick (fun n ->
          match Hashtbl.find_opt registry n with
          | Some (I r) ->
            Some
              ( n,
                Json.Obj
                  (List.map (fun (k, v) -> (k, Json.Str v)) (Atomic.get r)) )
          | _ -> None)
    in
    Json.Obj
      ([ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges);
         ("histograms", Json.Obj histograms) ]
       @ (if infos = [] then [] else [ ("infos", Json.Obj infos) ]))

  let reset () =
    locked @@ fun () ->
    Hashtbl.iter
      (fun _ m ->
        match m with
        | C c -> Atomic.set c 0
        | G g -> Atomic.set g 0.0
        | H h ->
          Mutex.lock h.hmu;
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.hsum <- 0.0;
          h.hcount <- 0;
          Array.fill h.hexemplars 0 (Array.length h.hexemplars) None;
          Mutex.unlock h.hmu
        | I _ -> ())
      registry
end

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

module Timeline = struct
  (* A bounded (elapsed_us, value) series.  Offered samples are admitted
     every [stride]-th call; when the buffer fills, every other retained
     point is dropped and the stride doubles.  The retained set is a
     deterministic function of the offered sequence (no randomness), the
     memory is O(capacity) however long the solve runs, and the series
     always spans the full observation window (the oldest retained point
     only moves forward by halving, never by eviction). *)
  type t = {
    cap : int;
    t0 : float;
    times : float array;
    values : float array;
    mutable n : int;
    mutable stride : int;
    mutable seen : int;
  }

  let create ?(capacity = 256) () =
    let cap = max 2 capacity in
    { cap; t0 = now_us (); times = Array.make cap 0.0;
      values = Array.make cap 0.0; n = 0; stride = 1; seen = 0 }

  let halve t =
    (* Keep even indices (the older half of each pair), so the very first
       point — the start of the series — is always preserved. *)
    let k = ref 0 in
    let i = ref 0 in
    while !i < t.n do
      t.times.(!k) <- t.times.(!i);
      t.values.(!k) <- t.values.(!i);
      incr k;
      i := !i + 2
    done;
    t.n <- !k;
    t.stride <- t.stride * 2

  let push t el v =
    if t.n >= t.cap then halve t;
    t.times.(t.n) <- el;
    t.values.(t.n) <- v;
    t.n <- t.n + 1

  let record ?elapsed_us ?(force = false) t v =
    let el =
      match elapsed_us with Some e -> e | None -> Float.max 0.0 (now_us () -. t.t0)
    in
    let admit = force || t.seen mod t.stride = 0 in
    t.seen <- t.seen + 1;
    if admit then push t el v

  let length t = t.n
  let capacity t = t.cap
  let seen t = t.seen

  let points t = List.init t.n (fun i -> (t.times.(i), t.values.(i)))

  let to_json t =
    Json.List
      (List.init t.n (fun i ->
           Json.List [ Json.Float t.times.(i); Json.Float t.values.(i) ]))
end

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

module Phases = struct
  (* Named wall-clock accumulators for attributing one computation's time
     across its internal phases.  An assoc list in first-use order keeps
     serialization deterministic; instances are per-solve and single-domain
     (NOT thread-safe — unlike the registry above, these are values the
     caller owns, not process-wide state). *)
  type cell = { mutable pc_count : int; mutable pc_total_us : float }

  type t = {
    mutable entries : (string * cell) list; (* reverse first-use order *)
    mutable nested_us : float;
        (* wall clock of the [time] calls nested inside the innermost open
           one, subtracted from it so every phase records self time *)
  }

  let create () = { entries = []; nested_us = 0.0 }

  let cell t name =
    match List.assoc_opt name t.entries with
    | Some c -> c
    | None ->
      let c = { pc_count = 0; pc_total_us = 0.0 } in
      t.entries <- (name, c) :: t.entries;
      c

  let add_us t name us =
    let c = cell t name in
    c.pc_count <- c.pc_count + 1;
    c.pc_total_us <- c.pc_total_us +. Float.max 0.0 us

  let time t name f =
    let outer_nested = t.nested_us in
    t.nested_us <- 0.0;
    let start = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let elapsed = Float.max 0.0 (now_us () -. start) in
        add_us t name (elapsed -. t.nested_us);
        t.nested_us <- outer_nested +. elapsed)
      f

  let count t name =
    match List.assoc_opt name t.entries with Some c -> c.pc_count | None -> 0

  let total_us t name =
    match List.assoc_opt name t.entries with
    | Some c -> c.pc_total_us
    | None -> 0.0

  let merge_into ~dst src =
    List.iter
      (fun (name, c) ->
        let d = cell dst name in
        d.pc_count <- d.pc_count + c.pc_count;
        d.pc_total_us <- d.pc_total_us +. c.pc_total_us)
      (List.rev src.entries)

  let to_list t =
    List.rev_map (fun (name, c) -> (name, (c.pc_count, c.pc_total_us))) t.entries

  let to_json t =
    Json.Obj
      (List.map
         (fun (name, (count, total)) ->
           (name,
            Json.Obj
              [ ("count", Json.Int count); ("total_us", Json.Float total) ]))
         (to_list t))
end
