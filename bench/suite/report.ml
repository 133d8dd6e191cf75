(* One workload run's outcome, how it is printed, and the metric
   declarations in BENCHMARK.json it is checked against. *)

module J = Dart_obs.Obs.Json

(** How one workload is run. *)
type opts = {
  seed : int;
  seconds : float;  (* length of the timed window *)
  traced : bool;    (* record layer spans and report per-layer metrics *)
  smoke : bool;     (* toy sizes: checks wiring and correctness, not speed *)
}

type metric = { name : string; value : float; unit_ : string }

type t = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;   (* empty unless traced *)
  problems : string list;    (* why [correct] is false *)
}

let m name unit_ value = { name; value; unit_ }

(** The end-to-end metrics every workload reports.  [lat_ms] are the
    per-op latencies of the timed window; [answers] counts the answers
    that could carry a provenance and [exact] those that were exact. *)
let end_to_end ~setup_s ~ops_per_s ~lat_ms ~attempted ~failed ~exact ~answers ~rss_mb =
  let a = Stats.sorted lat_ms in
  let frac num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" ops_per_s;
    m "p50_ms" "ms" (Stats.percentile a 50.0);
    m "p90_ms" "ms" (Stats.percentile a 90.0);
    m "ok_frac" "frac" (1.0 -. frac failed attempted);
    m "exact_frac" "frac" (frac exact answers);
    m "peak_rss_mb" "MB" rss_mb ]

(** Every per-layer metric and its unit.  Times are self times and, like
    counts, means per op unless the name says otherwise; a workload that
    does not exercise a layer reports 0 for it. *)
let layer_catalog =
  [ ("html.parse_ms", "ms"); ("acquire.convert_ms", "ms"); ("acquire.extract_ms", "ms");
    ("acquire.dbgen_ms", "ms"); ("acquire.match_rate", "frac"); ("acquire.tuples", "count");
    ("constraints.detect_ms", "ms"); ("constraints.ground_ms", "ms");
    ("constraints.ground_rows", "count"); ("constraints.violated", "count");
    ("repair.decompose_ms", "ms"); ("repair.components", "count"); ("repair.encode_ms", "ms");
    ("repair.milp_vars", "count"); ("repair.milp_rows", "count");
    ("repair.card_minimal_ms", "ms"); ("repair.unattributed_ms", "ms");
    ("repair.m_retries", "count"); ("repair.cardinality", "count");
    ("lp.milp_ms", "ms"); ("lp.nodes", "count"); ("lp.pivots", "count");
    ("lp.dual_pivots", "count"); ("lp.warm_starts", "count"); ("lp.warm_fallbacks", "count");
    ("lp.us_per_node", "us"); ("lp.pivots_per_node", "count"); ("lp.dense_fallbacks", "count");
    ("lp.bland_fallbacks", "count"); ("lp.refactorizations", "count");
    ("gc.minor_mb_per_op", "MB"); ("gc.major_collections_per_op", "count");
    ("server.latency_p50_ms", "ms"); ("server.latency_p90_ms", "ms");
    ("server.queue_wait_p50_ms", "ms"); ("server.queue_wait_p90_ms", "ms");
    ("server.wire_ms", "ms"); ("server.json_encode_us", "us"); ("server.json_decode_us", "us");
    ("server.bytes_in_per_op", "bytes"); ("server.bytes_out_per_op", "bytes");
    ("server.coalesced", "count"); ("server.shed", "count"); ("server.busy", "count");
    ("server.brownout_max", "level"); ("cache.hit_frac", "frac"); ("cache.evictions", "count");
    ("cache.bytes", "bytes"); ("session.open_ms", "ms"); ("session.rounds_per_session", "count");
    ("session.pins_per_session", "count"); ("durable.wal_bytes_per_round", "bytes");
    ("durable.wal_events", "count"); ("durable.replay_ms", "ms"); ("durable.recovered", "count");
    ("loadgen.lag_p90_ms", "ms"); ("loadgen.late_frac", "frac"); ("max_rate_rps", "1/s");
    ("recover_s", "s"); ("trace.ops_per_s", "1/s") ]

(** The per-layer metrics from the values a workload measured; layers it
    did not touch read 0. *)
let per_layer (values : (string * float) list) =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n layer_catalog) then invalid_arg ("unknown layer metric " ^ n))
    values;
  List.map
    (fun (n, u) -> m n u (Option.value ~default:0.0 (List.assoc_opt n values)))
    layer_catalog

(** Set up [n] times, tearing down all but the last set-up; returns it
    and the median set-up time in seconds ([setup_s]).  Repeating a short
    set-up keeps a burst of outside load from deciding it. *)
let repeated_setup n ~setup ~teardown =
  let rec go k times =
    let t0 = Dart_obs.Obs.now_ms () in
    let x = setup () in
    let times = (Dart_obs.Obs.elapsed_ms ~since:t0 /. 1000.0) :: times in
    if k = 1 then (x, Stats.median times)
    else begin
      teardown x;
      go (k - 1) times
    end
  in
  go n []

(** Problems with the latency sample itself: a p90 needs ten samples
    beyond it (smoke runs are too small to care). *)
let sample_problems (o : opts) lat_ms =
  let n = List.length lat_ms in
  if o.smoke || Stats.supported ~n 90.0 then []
  else [ Printf.sprintf "only %d latency samples: p90 needs at least 10 beyond it" n ]

let reported r = if r.traced then r.per_layer else r.end_to_end

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

(** The result line: the last line of standard output, one JSON object. *)
let result_line r =
  let metrics =
    List.map
      (fun x -> Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (J.escape x.name) (number x.value)
                  (J.escape x.unit_))
      (reported r)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" r.correct
    (max 1 r.attempted) r.failed (String.concat "," metrics)

let print r =
  List.iter
    (fun x -> Printf.printf "%s %s %s %s\n" r.workload x.name (number x.value) x.unit_)
    (reported r);
  List.iter (fun p -> Printf.printf "%s problem: %s\n" r.workload p) r.problems;
  print_endline (result_line r)

let metric_json x = J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ]

let to_json r =
  J.Obj
    [ ("workload", J.Str r.workload); ("seed", J.Int r.seed); ("traced", J.Bool r.traced);
      ("correct", J.Bool r.correct); ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("end_to_end", J.Obj (List.map (fun x -> (x.name, metric_json x)) r.end_to_end));
      ("per_layer", J.Obj (List.map (fun x -> (x.name, metric_json x)) r.per_layer));
      ("problems", J.List (List.map (fun p -> J.Str p) r.problems)) ]

(** Read back what {!to_json} wrote.  @raise Failure on anything else. *)
let of_json text =
  let j = match J.of_string text with Ok j -> j | Error e -> failwith e in
  let field k = function J.Obj kvs -> List.assoc_opt k kvs | _ -> None in
  let get k = match field k j with Some v -> v | None -> failwith ("missing " ^ k) in
  (* A metric that could not be measured (no samples) was written as null. *)
  let num = function
    | J.Float f -> f
    | J.Int i -> float_of_int i
    | J.Null -> Float.nan
    | _ -> failwith "number"
  in
  let metrics k =
    match get k with
    | J.Obj kvs ->
      List.map
        (fun (name, v) ->
          match (field "value" v, field "unit" v) with
          | Some x, Some (J.Str u) -> m name u (num x)
          | _ -> failwith ("bad metric " ^ name))
        kvs
    | _ -> failwith k
  in
  let str = function J.Str s -> s | _ -> failwith "string" in
  let bool = function J.Bool b -> b | _ -> failwith "bool" in
  { workload = str (get "workload"); seed = int_of_float (num (get "seed"));
    traced = bool (get "traced"); correct = bool (get "correct");
    attempted = int_of_float (num (get "attempted")); failed = int_of_float (num (get "failed"));
    end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer";
    problems = (match get "problems" with J.List l -> List.map str l | _ -> []) }

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type declared = {
  d_name : string;
  d_unit : string;
  d_better : Stats.better;
  d_bound : float option;  (* end-to-end metrics only *)
}

type benchmark = {
  workloads : string list;
  e2e : declared list;
  layers : declared list;
}

let load_benchmark path =
  let j =
    match J.of_string (read_file path) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let field k = function
    | J.Obj kvs -> List.assoc_opt k kvs
    | _ -> None
  in
  let str k o = match field k o with Some (J.Str s) -> s | _ -> failwith ("missing " ^ k) in
  let list k = match field k j with Some (J.List l) -> l | _ -> failwith ("missing " ^ k) in
  let declared o =
    { d_name = str "name" o; d_unit = str "unit" o;
      d_better = Stats.better_of_string (str "better" o);
      d_bound =
        (match field "bound" o with
         | Some (J.Float f) -> Some f
         | Some (J.Int i) -> Some (float_of_int i)
         | _ -> None) }
  in
  { workloads = List.map (str "name") (list "workloads");
    e2e = List.map declared (list "end_to_end");
    layers = List.map declared (list "per_layer") }

(** Every metric the run reported is declared with the same unit, every
    declared metric of its kind was reported, and no end-to-end metric
    reads 0 (a regression bound is a share of it). *)
let check_declared bench r =
  let decl = if r.traced then bench.layers else bench.e2e in
  let got = reported r in
  List.filter_map
    (fun x ->
      match List.find_opt (fun d -> d.d_name = x.name) decl with
      | None -> Some (Printf.sprintf "%s: metric %s is not declared" r.workload x.name)
      | Some d when d.d_unit <> x.unit_ ->
        Some
          (Printf.sprintf "%s: metric %s has unit %s, declared %s" r.workload x.name x.unit_
             d.d_unit)
      | Some _ when (not r.traced) && not (Float.is_finite x.value && x.value <> 0.0) ->
        Some (Printf.sprintf "%s: metric %s reads %g" r.workload x.name x.value)
      | Some _ -> None)
    got
  @ List.filter_map
      (fun d ->
        if List.exists (fun x -> x.name = d.d_name) got then None
        else Some (Printf.sprintf "%s: declared metric %s is missing" r.workload d.d_name))
      decl
