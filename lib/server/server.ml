(** The DART repair service.

    Threading model (see DESIGN.md §6; failure model in §7):

    {ul
    {- the {e accept loop} runs on one thread: [select] on the listening
       socket plus a self-pipe (so signals and {!stop} wake it), accepts
       connections, and sweeps expired sessions once a second;}
    {- each connection gets a lightweight {e I/O thread} that reads
       frames, parses requests and writes responses — it never does
       solver work;}
    {- heavy requests (acquire/detect/repair/session solves) are
       submitted to a fixed-size {e domain worker pool} ({!Pool}); a full
       queue yields an immediate [busy] error (backpressure) and a
       request whose [deadline_ms] passes before completion yields
       [deadline_exceeded];}
    {- [SIGINT]/[SIGTERM] (or a [shutdown] request) trigger a graceful
       stop: stop accepting, answer [shutting_down] to new frames, drain
       in-flight work, then join the pool.}}

    Within one [repair] or session re-solve, independent connected
    components of the ground system also fan out over the same pool via
    {!Solver.mapper}, so a single big request still uses every domain. *)

open Dart_relational
open Dart_constraints
open Dart
module Obs = Dart_obs.Obs
module Json = Obs.Json
module Health = Dart_obs.Health
module Slo = Dart_obs.Slo
module Runtime = Dart_obs.Runtime
module Cancel = Dart_resilience.Cancel
module Overload = Dart_resilience.Overload
module Faultsim = Dart_faultsim.Faultsim
module Solver = Dart_repair.Solver
module Wal = Dart_durable.Wal

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

type config = {
  addr : Proto.addr;
  domains : int;                  (** worker pool size (>= 1) *)
  queue_capacity : int;           (** bounded job queue -> [busy] beyond *)
  session_ttl_s : float;          (** idle sessions evicted after this *)
  max_sessions : int;
  max_frame_bytes : int;
  idle_timeout_s : float;         (** close connections idle this long *)
  drain_timeout_s : float;        (** max wait for in-flight work on stop *)
  max_nodes : int;                (** branch & bound budget per component *)
  max_iterations : int;           (** validation loop guard per session *)
  cancel_grace_ms : float;        (** wait this long after firing a running
                                      job's cancel token before abandoning it *)
  faults : Faultsim.t;            (** chaos-testing fault plan (default none) *)
  telemetry_port : int option;    (** Prometheus text endpoint on 127.0.0.1
                                      (0 = ephemeral; see {!telemetry_addr}) *)
  flight_dir : string option;     (** enable the flight recorder and dump
                                      post-mortems for bad requests here *)
  flight_capacity : int;          (** ring size per domain (events) *)
  access_log : string option;     (** one JSON line per request, appended *)
  access_log_max_bytes : int;     (** rotate the access log once it exceeds
                                      this many bytes (0 = never rotate);
                                      one rotated generation ([FILE.1]) is
                                      kept *)
  data_dir : string option;       (** durable session WAL + snapshots live
                                      here; [None] = volatile sessions *)
  wal_shards : int;               (** WAL shard count for a fresh data dir
                                      (an existing dir's layout wins) *)
  snapshot_every : int;           (** snapshot + truncate a WAL shard after
                                      this many appended events *)
  solve_cache_mb : int;           (** process-wide solve cache budget in MB
                                      (0 disables; see {!Solver.Cache}) *)
  coalesce : bool;                (** single-flight identical in-flight
                                      [detect]/[repair] requests *)
  overload : bool;                (** overload control: as measured
                                      queue wait climbs, tighten
                                      per-request solver budgets (see
                                      {!Overload.brownout_nodes}) and
                                      shed over-rate clients with a
                                      retryable [overloaded] error *)
  client_rate : float;            (** per-client admissions/s once the
                                      server is browned out (level >= 1) *)
  client_burst : float;           (** per-client token bucket capacity *)
  frame_write_timeout_s : float;  (** per-frame write deadline: a peer
                                      that stops draining its socket is
                                      disconnected (slow-client armor) *)
  frame_read_timeout_s : float;   (** mid-frame read deadline once the
                                      first bytes of a frame arrived
                                      (slowloris armor) *)
  health_slo : bool;              (** run the ~1 Hz ops ticker: GC/runtime
                                      sampler + SLO burn-rate engine *)
  slo_availability_target : float; (** good-request fraction objective *)
  slo_latency_target : float;     (** fraction of repairs that must finish
                                      under [slo_latency_ms] *)
  slo_latency_ms : float;         (** repair latency objective threshold;
                                      should be a histogram bucket bound *)
  scenarios : (string * Scenario.t) list;
}

let default_config ?(scenarios = []) addr =
  { addr;
    domains = max 1 (min 8 (Domain.recommended_domain_count () - 1));
    queue_capacity = 64; session_ttl_s = 600.0; max_sessions = 256;
    max_frame_bytes = 16 * 1024 * 1024; idle_timeout_s = 300.0;
    drain_timeout_s = 30.0; max_nodes = 2_000_000; max_iterations = 50;
    cancel_grace_ms = 200.0; faults = Faultsim.none;
    telemetry_port = None; flight_dir = None; flight_capacity = 256;
    access_log = None; access_log_max_bytes = 64 * 1024 * 1024;
    data_dir = None; wal_shards = Dart_durable.Wal.default_shards;
    snapshot_every = 64;
    (* Cache off by default: in-process callers comparing wire responses
       against fresh solves (the byte-parity suite) must not see answers
       computed by an earlier test's instance.  The CLI turns it on. *)
    solve_cache_mb = 0; coalesce = true;
    overload = true;
    client_rate = 50.0; client_burst = 100.0;
    frame_write_timeout_s = 10.0; frame_read_timeout_s = 10.0;
    health_slo = true; slo_availability_target = 0.999;
    slo_latency_target = 0.99; slo_latency_ms = 1000.0; scenarios }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_requests = Obs.Metrics.counter "server.requests"
let m_errors = Obs.Metrics.counter "server.errors"
let m_busy = Obs.Metrics.counter "server.busy_rejections"
let m_deadline = Obs.Metrics.counter "server.deadline_exceeded"
let m_conn_total = Obs.Metrics.counter "server.connections_total"
let m_bytes_in = Obs.Metrics.counter "server.bytes_in"
let m_bytes_out = Obs.Metrics.counter "server.bytes_out"
let m_flight_dumps = Obs.Metrics.counter "server.flight_dumps"
let m_coalesced = Obs.Metrics.counter "server.coalesced"
let m_shed = Obs.Metrics.counter "server.shed"
let m_slow_closes = Obs.Metrics.counter "server.slow_client_closes"
let g_brownout = Obs.Metrics.gauge "server.brownout_level"
let g_uptime = Obs.Metrics.gauge "server.uptime_s"
let g_retry_after = Obs.Metrics.gauge "server.retry_after_ms"
let g_connections = Obs.Metrics.gauge "server.connections"
let g_queue_depth = Obs.Metrics.gauge "server.queue_depth"
let g_sessions = Obs.Metrics.gauge "server.sessions"
let g_inflight = Obs.Metrics.gauge "server.inflight"
let h_latency = Obs.Metrics.histogram "server.latency_ms"
let h_queue_wait = Obs.Metrics.histogram "server.queue_wait_ms"

(* The same process-wide cell [Persist] bumps during recovery; fetched
   here so the stats verb can surface it without a Persist dependency on
   call sites that run volatile. *)
let c_recovered = Obs.Metrics.counter "sessions.recovered"

(* Per-verb latency histograms, registered lazily on first use so the
   registry only carries verbs the deployment actually serves.  Only the
   known dispatch verbs (plus "<parse>" for unparseable requests) get
   their own series; every other op shares one "unknown" bucket, so a
   client sending random op names cannot grow the registry — and the
   stats/Prometheus output — without bound. *)
let known_verbs =
  [ "ping"; "stats"; "metrics"; "shutdown"; "acquire"; "detect"; "repair";
    "session/open"; "session/next"; "session/decide"; "session/close";
    "<parse>" ]

let verb_hists : (string, Obs.Metrics.histogram) Hashtbl.t = Hashtbl.create 8
let verb_mu = Mutex.create ()

let verb_latency op =
  let op = if List.mem op known_verbs then op else "unknown" in
  Mutex.lock verb_mu;
  let h =
    match Hashtbl.find_opt verb_hists op with
    | Some h -> h
    | None ->
      let h = Obs.Metrics.histogram ("server.latency_ms." ^ op) in
      Hashtbl.add verb_hists op h;
      h
  in
  Mutex.unlock verb_mu;
  h

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

(* One in-flight coalescable solve.  The leader publishes its outcome;
   followers poll (OCaml's [Condition] has no timed wait, and followers
   must honour their own deadlines). *)
type flight_cell = {
  mutable outcome : [ `Pending | `Done of Json.t | `Failed ];
}

type t = {
  cfg : config;
  pool : Pool.t;
  store : Session.Store.t;
  persist : Persist.t option;
  mutable recovery : Persist.recovery option;
      (** populated by {!create} when [data_dir] is set *)
  flights : (string, flight_cell) Hashtbl.t;
  flights_mu : Mutex.t;
  ctrl : Overload.Controller.t;   (* EWMA load -> brownout level *)
  buckets : (string, Overload.Token_bucket.t) Hashtbl.t;
  buckets_mu : Mutex.t;           (* per-client admission buckets *)
  conn_seq : int Atomic.t;        (* fallback per-connection client ids *)
  stopping : bool Atomic.t;
  active_conns : int Atomic.t;
  inflight : int Atomic.t;        (* requests currently inside [process] *)
  heartbeat_ms : float Atomic.t;  (* last accept-loop iteration — /healthz
                                     liveness: is the event loop turning? *)
  mutable slo : Slo.t option;     (* burn-rate engine, when [health_slo] *)
  mutable ops_thread : Thread.t option; (* ~1 Hz runtime + SLO ticker *)
  started_at_ms : float;
  wake_r : Unix.file_descr;       (* self-pipe: wakes the accept select *)
  wake_w : Unix.file_descr;
  flight : (Obs.sink * (unit -> Obs.event list)) option;
  access_mu : Mutex.t;
  mutable access_oc : out_channel option;
  mutable access_bytes : int;     (* size of the current access-log file,
                                     tracked under [access_mu] to drive
                                     rotation without a stat per line *)
  mutable listen_fd : Unix.file_descr option;
  mutable accept_thread : Thread.t option;
  mutable telemetry_fd : Unix.file_descr option;
  mutable telemetry_thread : Thread.t option;
}

let create cfg =
  if cfg.scenarios = [] then invalid_arg "Server.create: no scenarios registered";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let flight =
    match cfg.flight_dir with
    | None -> None
    | Some dir ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> () | Unix.Unix_error _ -> ());
      let recorder = Obs.flight_recorder ~capacity:cfg.flight_capacity () in
      Obs.install (fst recorder);
      Some recorder
  in
  let access_oc =
    Option.map
      (fun path ->
        open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path)
      cfg.access_log
  in
  (* The solve cache is process-wide; the server owning the process
     decides its budget. *)
  Solver.Cache.set_budget_bytes (cfg.solve_cache_mb * 1024 * 1024);
  let t =
    { cfg;
      pool =
        Pool.create ~faults:cfg.faults ~domains:cfg.domains
          ~queue_capacity:cfg.queue_capacity ();
      store =
        Session.Store.create ~ttl_ms:(cfg.session_ttl_s *. 1000.0)
          ~max_sessions:cfg.max_sessions ();
      persist =
        Option.map
          (fun dir ->
            Persist.open_ ~shards:cfg.wal_shards
              ~snapshot_every:cfg.snapshot_every dir)
          cfg.data_dir;
      recovery = None;
      flights = Hashtbl.create 8; flights_mu = Mutex.create ();
      ctrl = Overload.Controller.create Overload.Controller.default_config;
      buckets = Hashtbl.create 16; buckets_mu = Mutex.create ();
      conn_seq = Atomic.make 0;
      stopping = Atomic.make false; active_conns = Atomic.make 0;
      inflight = Atomic.make 0; heartbeat_ms = Atomic.make (Obs.now_ms ());
      slo = None; ops_thread = None;
      started_at_ms = Obs.now_ms (); wake_r; wake_w;
      flight; access_mu = Mutex.create (); access_oc;
      access_bytes =
        (match access_oc with Some oc -> out_channel_length oc | None -> 0);
      listen_fd = None;
      accept_thread = None; telemetry_fd = None; telemetry_thread = None }
  in
  (match t.persist with
   | Some p ->
     let r =
       Persist.recover p ~scenarios:cfg.scenarios
         ~mapper:(Pool.solver_mapper t.pool) ~max_nodes:cfg.max_nodes
         ~store:t.store
     in
     t.recovery <- Some r;
     Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store))
   | None -> ());
  t

(** The crash-recovery summary, when {!create} replayed a data dir. *)
let recovery t = t.recovery

let stopping t = Atomic.get t.stopping

(** Request a graceful stop (idempotent, async-signal-safe). *)
let stop t =
  if not (Atomic.exchange t.stopping true) then
    (* Wake the accept loop; EAGAIN/EPIPE are fine (already awake/closed). *)
    try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with _ -> ()

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

exception Reply of Json.t
(* Handlers raise [Reply] for early error exits; [dispatch] catches it. *)

(* Per-request bookkeeping that outlives the handler: the worker records
   how long the job sat queued and the repair handler records the final
   B&B gap; the access log reads both after the response is built.
   Atomic because the read can race the worker's write when a job is
   abandoned past [cancel_grace_ms] (the worker domain may still be
   running while the connection thread answers). *)
type req_meta = {
  queue_wait_ms : float option Atomic.t;
  gap : float option Atomic.t;
      (* worst final B&B gap of a repair solve — positive exactly when the
         answer was degraded (deadline/budget), i.e. "gap at deadline" *)
}

let reply_error ?id code msg = raise (Reply (Proto.error ?id code msg))

let scenario_of t req =
  match Proto.string_field req.Proto.body "scenario" with
  | None -> reply_error ?id:req.Proto.id Proto.Bad_request "missing \"scenario\""
  | Some name ->
    (match List.assoc_opt name t.cfg.scenarios with
     | Some s -> s
     | None ->
       reply_error ?id:req.Proto.id Proto.Unknown_scenario
         (Printf.sprintf "unknown scenario %S (have: %s)" name
            (String.concat ", " (List.map fst t.cfg.scenarios))))

let format_of req =
  match Proto.string_field req.Proto.body "format" with
  | None | Some "html" -> Convert.Html
  | Some "csv" -> Convert.Csv
  | Some "tsv" -> Convert.Tsv
  | Some "fixed" -> Convert.Fixed_width
  | Some other ->
    reply_error ?id:req.Proto.id Proto.Bad_request
      (Printf.sprintf "unknown format %S (html|csv|tsv|fixed)" other)

let document_of req =
  match Proto.string_field req.Proto.body "document" with
  | Some d -> d
  | None -> reply_error ?id:req.Proto.id Proto.Bad_request "missing \"document\""

let acquire_db t ~cancel req =
  let scenario = scenario_of t req in
  let text = document_of req in
  let format = format_of req in
  (scenario, Pipeline.acquire scenario ~cancel ~format text)

let handle_acquire t ~cancel req =
  let _scenario, acq = acquire_db t ~cancel req in
  Proto.ok ?id:req.Proto.id
    [ ("relations", Proto.relations_json acq.Pipeline.db);
      ("rows_matched",
       Json.Int (List.length acq.Pipeline.extraction.Dart_wrapper.Extractor.instances));
      ("tuples", Json.Int (Database.cardinality acq.Pipeline.db)) ]

let handle_detect t ~cancel req =
  let scenario, acq = acquire_db t ~cancel req in
  let violated = Pipeline.detect scenario acq.Pipeline.db in
  Proto.ok ?id:req.Proto.id
    [ ("consistent", Json.Bool (violated = []));
      ("violations",
       Json.List
         (List.map
            (fun (k, thetas) ->
              Json.Obj
                [ ("constraint", Json.Str k.Agg_constraint.name);
                  ("groundings", Json.Int (List.length thetas)) ])
            violated)) ]

(* The brownout ladder turns measured load into a per-request node
   budget: full effort at level 0, a pruned tree at 1, incumbent-only at
   2, straight to the greedy tier at 3+.  The quality drop is visible to
   the client through the existing [provenance] field.  The budget only
   bounds new solves: a component the solve cache holds is answered
   exactly at any level.  Only stateless [repair] requests brown out;
   sessions keep the budget they were opened with (an operator
   mid-validation sees consistent proposals). *)
let effective_max_nodes t =
  if t.cfg.overload then
    Overload.brownout_nodes ~max_nodes:t.cfg.max_nodes
      (Overload.Controller.level t.ctrl)
  else t.cfg.max_nodes

let handle_repair t meta ~cancel req =
  let scenario, acq = acquire_db t ~cancel req in
  let db = acq.Pipeline.db in
  let rows = Ground.of_constraints db scenario.Scenario.constraints in
  let result =
    Pipeline.repair ~mapper:(Pool.solver_mapper t.pool)
      ~max_nodes:(effective_max_nodes t) ~cancel scenario db
  in
  Atomic.set meta.gap
    (Option.bind (Solver.result_stats result) Solver.report_gap);
  match result with
  | Solver.Cancelled _ ->
    (* Deadline fired and degradation had nothing to fall back to. *)
    Obs.Metrics.incr m_deadline;
    reply_error ?id:req.Proto.id Proto.Deadline_exceeded
      "deadline exceeded during solve"
  | result -> Proto.ok ?id:req.Proto.id (Proto.repair_fields ~rows db result)

let phase_string = function
  | Session.Proposing _ -> "pending"
  | Session.Converged _ -> "converged"
  | Session.Failed _ -> "failed"

(* The session summary common to open/decide/next responses. *)
let session_fields (s : Session.t) =
  let status, extra =
    match s.Session.phase with
    | Session.Proposing rho ->
      ("pending",
       [ ("pending", Json.Int (List.length (Session.pending_of s rho))) ])
    | Session.Converged db ->
      ("converged", [ ("relations", Proto.relations_json db) ])
    | Session.Failed why -> ("failed", [ ("reason", Json.Str why) ])
  in
  ("session", Json.Str s.Session.id) :: ("status", Json.Str status) :: extra
  @ [ ("iterations", Json.Int s.Session.iterations);
      ("examined", Json.Int s.Session.examined);
      ("pins", Json.Int (List.length s.Session.pins)) ]

let handle_session_open t ~cancel req =
  let scenario, acq = acquire_db t ~cancel req in
  let max_iterations =
    Option.value ~default:t.cfg.max_iterations
      (Proto.int_field req.Proto.body "max_iterations")
  in
  let id = Session.Store.fresh_id t.store in
  let origin_trace =
    match Obs.Trace.current () with
    | Some ctx -> ctx.Obs.Trace.trace_id
    | None -> ""
  in
  let s =
    Session.create ~id ~origin_trace ~scenario ~db:acq.Pipeline.db
      ~max_nodes:t.cfg.max_nodes ~max_iterations
      ~mapper:(Pool.solver_mapper t.pool) ~cancel ~now_ms:(Obs.now_ms ())
      ~ttl_ms:(Session.Store.ttl_ms t.store) ()
  in
  (match Session.Store.put t.store s with
   | Ok () -> ()
   | Error msg -> reply_error ?id:req.Proto.id Proto.Busy msg);
  Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
  (match t.persist with
   | Some p -> (
     try
       Persist.log_open p ~sid:id
         ~scenario:
           (Option.value ~default:""
              (Proto.string_field req.Proto.body "scenario"))
         ~format:
           (Option.value ~default:"html"
              (Proto.string_field req.Proto.body "format"))
         ~document:(document_of req) ~max_iterations ~origin_trace;
       Persist.log_phase p ~sid:id ~phase:(phase_string s.Session.phase)
     with Wal.Append_failed msg ->
       (* The session is not durable; do not hand out an id that a
          restart would forget.  Retryable: disk pressure may clear. *)
       ignore (Session.Store.close t.store id);
       Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
       reply_error ?id:req.Proto.id Proto.Busy
         (Printf.sprintf "session log unavailable (%s); retry later" msg))
   | None -> ());
  Proto.ok ?id:req.Proto.id (session_fields s)

let find_session t req =
  match Proto.string_field req.Proto.body "session" with
  | None -> reply_error ?id:req.Proto.id Proto.Bad_request "missing \"session\""
  | Some sid ->
    (match Session.Store.find t.store sid with
     | Some s -> s
     | None ->
       reply_error ?id:req.Proto.id Proto.Session_not_found
         (Printf.sprintf "session %S not found (closed or expired?)" sid))

let handle_session_next t req =
  let s = find_session t req in
  let updates = Session.pending s in
  Proto.ok ?id:req.Proto.id
    (session_fields s
     @ [ ("updates",
          Json.List (List.map (Proto.suggestion_json s.Session.db) updates)) ])

let handle_session_decide t ~cancel req =
  let s = find_session t req in
  let decisions =
    match Option.bind (Proto.member "decisions" req.Proto.body) Proto.as_list with
    | None ->
      reply_error ?id:req.Proto.id Proto.Bad_request "missing \"decisions\" array"
    | Some ds ->
      List.map
        (fun d ->
          match Proto.decision_of_json d with
          | Ok d -> d
          | Error msg -> reply_error ?id:req.Proto.id Proto.Bad_request msg)
        ds
  in
  match Session.decide ~mapper:(Pool.solver_mapper t.pool) ~cancel s decisions with
  | Ok phase ->
    (match t.persist with
     | Some p -> (
       try
         (* Logged after the round applied: only state the client can
            observe reaches the WAL (see {!Persist}). *)
         Persist.log_decide p ~sid:s.Session.id decisions;
         Persist.log_phase p ~sid:s.Session.id ~phase:(phase_string phase)
       with Wal.Append_failed msg ->
         (* The round applied in memory but is not durable: tell the
            client to retry (decisions are idempotent — re-accepting or
            re-overriding the same cells re-converges to the same
            state) rather than silently risking its loss on restart. *)
         reply_error ?id:req.Proto.id Proto.Busy
           (Printf.sprintf "session log unavailable (%s); retry the round"
              msg))
     | None -> ());
    Proto.ok ?id:req.Proto.id (session_fields s)
  | Error msg -> reply_error ?id:req.Proto.id Proto.Bad_request msg

let handle_session_close t req =
  match Proto.string_field req.Proto.body "session" with
  | None -> reply_error ?id:req.Proto.id Proto.Bad_request "missing \"session\""
  | Some sid ->
    let existed = Session.Store.close t.store sid in
    Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
    (match t.persist with
     | Some p when existed -> (
       try Persist.log_close p ~sid
       with Wal.Append_failed msg ->
         (* Closed in memory but not in the log: a restart would
            resurrect it (and TTL-evict it later).  Retryable. *)
         reply_error ?id:req.Proto.id Proto.Busy
           (Printf.sprintf "session log unavailable (%s); retry close" msg))
     | _ -> ());
    Proto.ok ?id:req.Proto.id [ ("closed", Json.Bool existed) ]

let uptime_s t = Obs.elapsed_ms ~since:t.started_at_ms /. 1000.0

let handle_stats t req =
  Obs.Metrics.set g_queue_depth (float_of_int (Pool.depth t.pool));
  Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
  Obs.Metrics.set g_inflight (float_of_int (Atomic.get t.inflight));
  Obs.Metrics.set g_connections (float_of_int (Atomic.get t.active_conns));
  Obs.Metrics.set g_uptime (uptime_s t);
  Proto.ok ?id:req.Proto.id
    [ ("server",
       Json.Obj
         [ ("uptime_ms", Json.Float (Obs.elapsed_ms ~since:t.started_at_ms));
           ("uptime_s", Json.Float (uptime_s t));
           ("domains", Json.Int (Pool.size t.pool));
           ("queue_depth", Json.Int (Pool.depth t.pool));
           ("connections", Json.Int (Atomic.get t.active_conns));
           ("inflight", Json.Int (Atomic.get t.inflight));
           ("sessions", Json.Int (Session.Store.count t.store));
           ("load", Json.Float (Overload.Controller.load t.ctrl));
           ("brownout_level", Json.Int (Overload.Controller.level t.ctrl)) ]);
      (* Recovery state without grepping logs: the recovered-session
         counter, WAL layout and the latest append failure (if any). *)
      ("durable",
       Json.Obj
         ([ ("enabled", Json.Bool (t.persist <> None));
            ("sessions_recovered", Json.Int (Obs.Metrics.value c_recovered)) ]
          @ (match t.persist with
             | None -> []
             | Some p ->
               [ ("wal_shards", Json.Int (Persist.wal_shards p)) ]
               @ (match Persist.last_append_error p with
                  | Some msg -> [ ("wal_last_error", Json.Str msg) ]
                  | None -> []))));
      ("health", Health.to_json (Health.run_all ()));
      ("exemplars", Obs.Metrics.exemplars_json ());
      ("metrics", Obs.Metrics.snapshot ()) ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Heavy handlers run on the worker pool; the connection thread waits,
   polling cheaply, until completion or the request's deadline.

   Deadline handling is cooperative: the handler runs under a cancel
   token whose deadline mirrors [deadline_ms], so the solve aborts itself
   (degrading to an incumbent/greedy answer when it can) within
   milliseconds of the deadline.  The waiting thread additionally fires
   the token explicitly at the deadline — covering clock skew and jobs
   still queued — and only after [cancel_grace_ms] of unresponsiveness
   does it abandon the job (answering the client while the slot finishes
   in the background). *)
(* ---- admission control ------------------------------------------- *)

(* The per-client token bucket, created on first sight.  The table is
   bounded: client ids are <= 64 bytes on the wire and the table is
   reset past a generous cap (buckets refill to full burst, so a reset
   only briefly over-admits). *)
let client_bucket t client =
  Mutex.lock t.buckets_mu;
  if Hashtbl.length t.buckets > 4096 then Hashtbl.reset t.buckets;
  let b =
    match Hashtbl.find_opt t.buckets client with
    | Some b -> b
    | None ->
      let b =
        Overload.Token_bucket.create ~rate:t.cfg.client_rate
          ~burst:t.cfg.client_burst ()
      in
      Hashtbl.add t.buckets client b;
      b
  in
  Mutex.unlock t.buckets_mu;
  b

(* Shed this request before queueing it?  [Some (reason, retry_after_ms)]
   says yes.  At brownout level 0 nothing is shed: fairness comes from
   the round-robin queue alone and no client is rate-limited.  Once the
   server is browned out, a client over its token-bucket rate is shed.
   A request whose deadline the backlog will outlive is not shed here:
   [Pool.request_cancel] drops it from the queue at its deadline, so it
   costs no solve time. *)
let admission_verdict t client =
  if t.cfg.overload && Overload.Controller.level t.ctrl >= 1 then begin
    let bucket = client_bucket t client in
    if Overload.Token_bucket.try_take bucket then None
    else
      Some
        ( "client rate limit (brownout)",
          Float.max 1.0 (Overload.Token_bucket.wait_hint_ms bucket) )
  end
  else None

let run_on_pool t meta ~client req handler =
  match admission_verdict t client with
  | Some (reason, retry_after_ms) ->
    Obs.Metrics.incr m_shed;
    Obs.Metrics.set g_retry_after retry_after_ms;
    Proto.error ?id:req.Proto.id ~retry_after_ms Proto.Overloaded
      (Printf.sprintf "overloaded: %s; retry in %.0fms" reason retry_after_ms)
  | None ->
  (* Chaos flood: drag a burst of synthetic no-op jobs in with this
     admission, on the internal lane, for deterministic queue pressure. *)
  (match Faultsim.on_admission t.cfg.faults with
   | 0 -> ()
   | burst ->
     for _ = 1 to burst do
       ignore (Pool.try_submit t.pool (fun () -> Proto.ok []))
     done);
  let cancel =
    match req.Proto.deadline_ms with
    | Some d -> Cancel.create ~deadline_ms:(Float.max 0.0 d) ()
    | None -> Cancel.none
  in
  let deadline =
    Option.map (fun d -> Obs.now_ms () +. Float.max 0.0 d) req.Proto.deadline_ms
  in
  (* Capture the connection thread's trace context (the server.request
     span) and rebind it inside the worker domain, so the queue-wait and
     worker spans — and everything the solver opens below them — stitch
     into the request's tree instead of starting orphan traces. *)
  let ctx = Obs.Trace.current () in
  let submitted_us = Obs.now_us () in
  let job () =
    Obs.Trace.with_context ctx (fun () ->
        let wait_us = Float.max 0.0 (Obs.now_us () -. submitted_us) in
        let wait_ms = wait_us /. 1e3 in
        Atomic.set meta.queue_wait_ms (Some wait_ms);
        Obs.Metrics.observe h_queue_wait wait_ms;
        Overload.Controller.observe t.ctrl ~queue_wait_ms:wait_ms;
        Obs.Metrics.set g_brownout
          (float_of_int (Overload.Controller.level t.ctrl));
        Obs.emit_span "server.queue_wait"
          ~attrs:[ ("op", Obs.Str req.Proto.op) ]
          ~start_us:submitted_us ~dur_us:wait_us;
        Obs.span "server.worker" ~attrs:[ ("op", Obs.Str req.Proto.op) ]
          (fun () -> handler t ~cancel req))
  in
  match Pool.try_submit ~cancel ~client t.pool job with
  | None ->
    Obs.Metrics.incr m_busy;
    Proto.error ?id:req.Proto.id Proto.Busy
      (Printf.sprintf "worker queue full (%d jobs); retry later"
         t.cfg.queue_capacity)
  | Some fut ->
    Obs.Metrics.set g_queue_depth (float_of_int (Pool.depth t.pool));
    let deadline_error msg =
      Obs.Metrics.incr m_deadline;
      Proto.error ?id:req.Proto.id Proto.Deadline_exceeded msg
    in
    let rec wait ~grace =
      match Pool.poll fut with
      | `Done (Ok resp) -> resp
      | `Done (Error (Reply resp)) -> resp
      | `Done (Error Cancel.Cancelled) ->
        (* The token unwound a stage with no degradation path (e.g.
           acquisition); the worker slot is already free. *)
        deadline_error "deadline exceeded during solve"
      | `Done (Error (Wal.Append_failed msg)) ->
        (* Disk error on a durable append that no handler converted:
           still a retryable condition, never a crash. *)
        Proto.error ?id:req.Proto.id Proto.Busy
          (Printf.sprintf "busy: durable log unavailable (%s)" msg)
      | `Done (Error (Faultsim.Injected_fault what)) ->
        (* Simulated infrastructure failure: transient by construction,
           so tell the client it is safe to retry. *)
        Proto.error ?id:req.Proto.id Proto.Busy
          (Printf.sprintf "busy: worker lost to injected fault (%s)" what)
      | `Done (Error e) ->
        Proto.error ?id:req.Proto.id Proto.Internal (Printexc.to_string e)
      | `Cancelled ->
        deadline_error "deadline exceeded while queued"
      | `Pending_or_running ->
        (match deadline with
         | Some d when Obs.now_ms () > d ->
           (match grace with
            | None ->
              (* First poll past the deadline: deschedule if still
                 queued (next poll sees [`Cancelled]); otherwise fire
                 the running job's token and give it a short grace
                 period to unwind cooperatively. *)
              if Pool.request_cancel fut then wait ~grace
              else wait ~grace:(Some (d +. t.cfg.cancel_grace_ms))
            | Some g when Obs.now_ms () > g ->
              (* The job ignored its token past the grace window (a
                 stuck stage): answer the client now and let the slot
                 finish in the background rather than hang the
                 connection. *)
              deadline_error "deadline exceeded during solve (job abandoned)"
            | Some _ ->
              Thread.delay 0.0005;
              wait ~grace)
         | _ ->
           Thread.delay 0.0005;
           wait ~grace)
    in
    wait ~grace:None

(* ------------------------------------------------------------------ *)
(* Single-flight coalescing                                            *)
(* ------------------------------------------------------------------ *)

(* Identical in-flight [detect]/[repair] requests — same op, scenario,
   format and document — share one solve: the first claimant becomes the
   leader and computes; the rest await its answer and re-address it with
   their own request id.  Responses are a pure function of the request
   (wire-level byte-determinism), so a coalesced answer is byte-identical
   to a freshly computed one.  Followers whose leader fails (error
   response or exception) fall back to their own solve, so coalescing
   never makes an answer worse — only cheaper. *)
let coalesce_key req =
  match
    ( Proto.string_field req.Proto.body "scenario",
      Proto.string_field req.Proto.body "document" )
  with
  | Some scenario, Some document ->
    let format =
      Option.value ~default:"html" (Proto.string_field req.Proto.body "format")
    in
    Some
      (Digest.string
         (String.concat "\x00" [ req.Proto.op; scenario; format; document ]))
  | _ -> None (* malformed request: let the handler shape the error *)

let coalesced t req run =
  match (if t.cfg.coalesce then coalesce_key req else None) with
  | None -> run ()
  | Some key -> (
    let claim () =
      Mutex.lock t.flights_mu;
      let r =
        match Hashtbl.find_opt t.flights key with
        | Some cell -> `Follower cell
        | None ->
          let cell = { outcome = `Pending } in
          Hashtbl.add t.flights key cell;
          `Leader cell
      in
      Mutex.unlock t.flights_mu;
      r
    in
    match claim () with
    | `Leader cell ->
      let finish outcome =
        Mutex.lock t.flights_mu;
        Hashtbl.remove t.flights key;
        cell.outcome <- outcome;
        Mutex.unlock t.flights_mu
      in
      (match run () with
       | resp ->
         finish (if Proto.response_ok resp then `Done resp else `Failed);
         resp
       | exception e ->
         finish `Failed;
         raise e)
    | `Follower cell ->
      Obs.Metrics.incr m_coalesced;
      let deadline =
        Option.map
          (fun d -> Obs.now_ms () +. Float.max 0.0 d)
          req.Proto.deadline_ms
      in
      let peek () =
        Mutex.lock t.flights_mu;
        let o = cell.outcome in
        Mutex.unlock t.flights_mu;
        o
      in
      let rec await () =
        match peek () with
        | `Done resp -> Proto.reid ?id:req.Proto.id resp
        | `Failed ->
          (* The leader's failure may have been specific to it (its own
             deadline, an injected fault): compute our own answer. *)
          run ()
        | `Pending -> (
          match deadline with
          | Some d when Obs.now_ms () > d ->
            Obs.Metrics.incr m_deadline;
            Proto.error ?id:req.Proto.id Proto.Deadline_exceeded
              "deadline exceeded awaiting coalesced solve"
          | _ ->
            Thread.delay 0.0005;
            await ())
      in
      await ())

let dispatch t meta ~conn_client req =
  (* Fair-queue / rate-limit identity: the client's self-declared id
     when it sent one, else this connection's synthetic id (one slot per
     connection — an anonymous hot client still cannot starve others). *)
  let client = Option.value ~default:conn_client req.Proto.client in
  match req.Proto.op with
  | "ping" -> Proto.ok ?id:req.Proto.id [ ("pong", Json.Bool true) ]
  | "stats" -> handle_stats t req
  | "metrics" ->
    (* Prometheus text exposition over the wire protocol, for clients
       that already speak frames; [--telemetry-port] serves the same body
       over plain HTTP for curl/scrapers. *)
    Proto.ok ?id:req.Proto.id
      [ ("prometheus", Json.Str (Obs.Metrics.prometheus ())) ]
  | "shutdown" ->
    stop t;
    Proto.ok ?id:req.Proto.id [ ("stopping", Json.Bool true) ]
  | "session/next" -> handle_session_next t req
  | "session/close" -> handle_session_close t req
  | "acquire" -> run_on_pool t meta ~client req handle_acquire
  | "detect" ->
    coalesced t req (fun () -> run_on_pool t meta ~client req handle_detect)
  | "repair" ->
    coalesced t req (fun () ->
        run_on_pool t meta ~client req (fun t ~cancel req ->
            handle_repair t meta ~cancel req))
  | "session/open" -> run_on_pool t meta ~client req handle_session_open
  | "session/decide" -> run_on_pool t meta ~client req handle_session_decide
  | other ->
    Proto.error ?id:req.Proto.id Proto.Unknown_op
      (Printf.sprintf "unknown op %S" other)

(* Size-based rotation: once the current file exceeds
   [access_log_max_bytes], rename it to [FILE.1] (clobbering the previous
   generation) and start a fresh file — exactly one rotated generation is
   kept, bounding disk use at ~2x the threshold.  Called with [access_mu]
   held. *)
let rotate_access_log_locked t =
  match (t.access_oc, t.cfg.access_log) with
  | Some oc, Some path ->
    (try
       flush oc;
       close_out oc;
       Sys.rename path (path ^ ".1");
       t.access_oc <-
         Some (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path);
       t.access_bytes <- 0
     with Sys_error _ ->
       (* Rotation failing (e.g. permissions on the directory) must not
          lose the log: reopen the original path and carry on appending. *)
       (try
          t.access_oc <-
            Some (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path);
          t.access_bytes <-
            (match t.access_oc with
             | Some oc -> out_channel_length oc
             | None -> 0)
        with Sys_error _ -> t.access_oc <- None))
  | _ -> ()

(* Append one already-serialized JSON line to the access-log stream.
   The channel is shared by every connection thread (and the ops
   thread, for SLO events), so writes are serialized by [access_mu]. *)
let access_append t line =
  Mutex.lock t.access_mu;
  (match t.access_oc with
   | None -> ()
   | Some oc ->
     (try
        output_string oc line;
        output_char oc '\n';
        flush oc;
        t.access_bytes <- t.access_bytes + String.length line + 1;
        if t.cfg.access_log_max_bytes > 0
           && t.access_bytes >= t.cfg.access_log_max_bytes
        then rotate_access_log_locked t
      with Sys_error _ -> ()));
  Mutex.unlock t.access_mu

(* One JSON line per finished request. *)
let access_log_line t ~op ~trace_id ~outcome ~ms ~queue_wait ~provenance ~gap
    ~bytes_in ~bytes_out =
  match t.access_oc with
  | None -> ()
  | Some _ ->
    let line =
      Json.to_string
        (Json.Obj
           ([ ("ts_ms", Json.Float (Obs.now_ms ())); ("op", Json.Str op);
              ("trace_id", Json.Str trace_id); ("outcome", Json.Str outcome);
              ("ms", Json.Float ms); ("bytes_in", Json.Int bytes_in);
              ("bytes_out", Json.Int bytes_out) ]
            @ (match queue_wait with
               | Some w -> [ ("queue_wait_ms", Json.Float w) ]
               | None -> [])
            @ (match provenance with
               | Some p -> [ ("provenance", Json.Str p) ]
               | None -> [])
            @ (match gap with
               | Some g -> [ ("gap", Json.Float g) ]
               | None -> [])))
    in
    access_append t line

(* Burn-rate threshold crossings land in the same stream as request
   lines, so the on-call timeline interleaves "budget burning" with the
   requests that burned it. *)
let slo_event t (ev : Slo.event) =
  let kind = Slo.kind_label ev.Slo.ev_kind in
  Obs.log Obs.Warn "server.slo_burn"
    ~attrs:
      [ ("slo", Obs.Str ev.Slo.ev_slo); ("window", Obs.Str ev.Slo.ev_window);
        ("burn_rate", Obs.Float ev.Slo.ev_burn_rate); ("kind", Obs.Str kind) ];
  match t.access_oc with
  | None -> ()
  | Some _ ->
    access_append t
      (Json.to_string
         (Json.Obj
            [ ("ts_ms", Json.Float (Obs.now_ms ())); ("type", Json.Str "slo");
              ("slo", Json.Str ev.Slo.ev_slo);
              ("window", Json.Str ev.Slo.ev_window);
              ("burn_rate", Json.Float ev.Slo.ev_burn_rate);
              ("kind", Json.Str kind) ]))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  || (let found = ref false in
      for i = 0 to nh - nn do
        if (not !found) && String.sub hay i nn = needle then found := true
      done;
      !found)

(* Which bad endings deserve a post-mortem dump: deadline aborts, worker
   crashes (anything surfaced as [internal]) and injected faults (mapped
   to a retryable [busy], so matched by message). *)
let dump_reason ~outcome ~msg =
  match outcome with
  | "deadline_exceeded" -> Some "deadline"
  | "internal" -> Some "crash"
  | "busy"
    when (match msg with
          | Some m -> contains_substring m "injected fault"
          | None -> false) ->
    Some "fault"
  | _ -> None

(* The reason becomes part of a filename next to the (already hex-only)
   trace id, so hold it to the same standard: bounded length, filesystem
   and shell-safe charset, never empty.  Today's reasons are internal
   constants, but the bound keeps any future caller honest. *)
let sanitize_dump_reason reason =
  let n = min (String.length reason) 32 in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    let c = reason.[i] in
    Bytes.set b i
      (match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c
       | _ -> '_')
  done;
  if n = 0 then "unspecified" else Bytes.unsafe_to_string b

let maybe_dump_flight t ~trace_id ~outcome ~msg =
  match (t.flight, t.cfg.flight_dir) with
  | Some (_, snapshot), Some dir -> (
    match dump_reason ~outcome ~msg with
    | None -> ()
    | Some reason ->
      let reason = sanitize_dump_reason reason in
      let events =
        List.filter (fun e -> Obs.event_trace_id e = trace_id) (snapshot ())
      in
      (* [Proto.trace_of_json] already rejects non-hex trace ids, but a
         wire-supplied string must never name a filesystem path: anything
         that is not a plain hex token dumps as "untraced". *)
      let tid =
        if Proto.valid_trace_id trace_id then trace_id else "untraced"
      in
      let path =
        Filename.concat dir (Printf.sprintf "flight-%s-%s.jsonl" tid reason)
      in
      (try
         let oc = open_out path in
         output_string oc
           (Json.to_string
              (Json.Obj
                 [ ("type", Json.Str "flight"); ("trace_id", Json.Str trace_id);
                   ("reason", Json.Str reason);
                   ("events", Json.Int (List.length events)) ]));
         output_char oc '\n';
         List.iter
           (fun e ->
             output_string oc (Json.to_string (Obs.json_of_event e));
             output_char oc '\n')
           events;
         close_out oc;
         Obs.Metrics.incr m_flight_dumps;
         Obs.log Obs.Warn "server.flight_dump"
           ~attrs:
             [ ("path", Obs.Str path); ("reason", Obs.Str reason);
               ("events", Obs.Int (List.length events)) ]
       with Sys_error _ -> ()))
  | _ -> ()

(* Parse one frame payload and produce the serialized response.  Trace
   identity is decided here: a trace context carried in the request wins
   (the client started the trace); a bare request gets a fresh trace id
   at admission.  Serialization happens here too so the access log can
   record exact bytes-out. *)
let process t ~conn_client payload =
  let t0 = Obs.now_ms () in
  Obs.Metrics.add m_bytes_in (String.length payload);
  (* [g_inflight] is refreshed from [t.inflight] at read time
     (stats/telemetry) rather than here: two concurrent requests'
     gauge-set calls could land out of order and leave it stale. *)
  ignore (Atomic.fetch_and_add t.inflight 1);
  let meta = { queue_wait_ms = Atomic.make None; gap = Atomic.make None } in
  let resp, op, trace_id =
    match Json.of_string payload with
    | Error msg -> (Proto.error Proto.Parse_error msg, "<parse>", "")
    | Ok j ->
      (match Proto.request_of_json j with
       | Error msg ->
         (Proto.error ?id:(Proto.member "id" j) Proto.Parse_error msg, "<parse>", "")
       | Ok req ->
         let ctx =
           match req.Proto.trace with
           | Some (tid, psid) ->
             { Obs.Trace.trace_id = tid; parent_span_id = psid }
           | None ->
             { Obs.Trace.trace_id = Obs.Trace.fresh_trace_id ();
               parent_span_id = "" }
         in
         let resp =
           Obs.Trace.with_context (Some ctx) (fun () ->
               Obs.span "server.request" ~attrs:[ ("op", Obs.Str req.Proto.op) ]
                 (fun () ->
                   try dispatch t meta ~conn_client req with
                   | Reply resp -> resp
                   | e ->
                     Proto.error ?id:req.Proto.id Proto.Internal
                       (Printexc.to_string e)))
         in
         (resp, req.Proto.op, ctx.Obs.Trace.trace_id))
  in
  Obs.Metrics.incr m_requests;
  ignore (Atomic.fetch_and_add t.inflight (-1));
  let dt = Obs.elapsed_ms ~since:t0 in
  (* Record with an exemplar: the worst observation per bucket keeps its
     trace id, so a p99 on the scrape is traceable to a flight dump. *)
  let ex = if trace_id = "" then None else Some trace_id in
  Obs.Metrics.observe_ex ?trace_id:ex h_latency dt;
  Obs.Metrics.observe_ex ?trace_id:ex (verb_latency op) dt;
  let ok = Proto.response_ok resp in
  if not ok then Obs.Metrics.incr m_errors;
  let out = Json.to_string resp in
  Obs.Metrics.add m_bytes_out (String.length out);
  let code, msg = if ok then (None, None) else Proto.response_error resp in
  let outcome =
    match code with Some c -> c | None -> if ok then "ok" else "error"
  in
  if Obs.enabled () then
    Obs.log Obs.Debug "server.response"
      ~attrs:[ ("op", Obs.Str op); ("ms", Obs.Float dt) ];
  access_log_line t ~op ~trace_id ~outcome ~ms:dt
    ~queue_wait:(Atomic.get meta.queue_wait_ms)
    ~provenance:(Proto.string_field resp "provenance")
    ~gap:(Atomic.get meta.gap)
    ~bytes_in:(String.length payload) ~bytes_out:(String.length out);
  maybe_dump_flight t ~trace_id ~outcome ~msg;
  out

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Wait for the next frame in short select slices, so the thread notices
   [stop] promptly (bounded drain) while honouring the idle timeout.  The
   actual frame read only starts once bytes are available, and is then
   bounded by [frame_read_timeout_s], NOT the (much longer) idle budget:
   a peer that starts a frame and trickles it (slowloris) pins this
   thread only until the per-frame deadline, after which the connection
   is closed — a length-prefixed stream cannot be resynchronized. *)
let read_request t fd =
  let idle_deadline = Obs.now_ms () +. (t.cfg.idle_timeout_s *. 1000.0) in
  let rec go () =
    if stopping t then `Stop
    else
      match Unix.select [ fd ] [] [] 0.5 with
      | [], _, _ -> if Obs.now_ms () > idle_deadline then `Idle else go ()
      | _ :: _, _, _ ->
        let budget_s =
          Float.min t.cfg.frame_read_timeout_s
            (Float.max 0.05 ((idle_deadline -. Obs.now_ms ()) /. 1000.0))
        in
        (match Frame.read ~timeout:budget_s ~max_len:t.cfg.max_frame_bytes fd with
         | Ok payload -> `Request payload
         | Error Frame.Timeout ->
           (* Bytes arrived but the frame never completed in budget:
              slow client, armor closes it. *)
           Obs.Metrics.incr m_slow_closes;
           `Idle
         | Error Frame.Eof -> `Eof
         | Error (Frame.Oversized n) -> `Oversized n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* An injected truncation leaves the stream unsynchronizable, exactly
   like a real short write before a crash: report failure so the
   connection closes.  The per-frame write deadline is the other half of
   the slow-client armor: a peer that stops draining its socket gets
   disconnected instead of pinning this thread in [write]. *)
let send t fd payload =
  try
    Frame.write ~faults:t.cfg.faults ~timeout:t.cfg.frame_write_timeout_s fd
      payload;
    true
  with
  | Frame.Write_timeout ->
    Obs.Metrics.incr m_slow_closes;
    false
  | Unix.Unix_error _ | Sys_error _ | Faultsim.Injected_fault _ -> false

let handle_connection t fd =
  Obs.Metrics.incr m_conn_total;
  Obs.Metrics.set g_connections (float_of_int (Atomic.get t.active_conns));
  let conn_client =
    Printf.sprintf "conn-%d" (Atomic.fetch_and_add t.conn_seq 1)
  in
  let rec serve () =
    match read_request t fd with
    | `Eof | `Idle -> ()
    | `Stop ->
      (* Refuse new work during drain, politely. *)
      ignore
        (send t fd
           (Json.to_string
              (Proto.error Proto.Shutting_down "server is shutting down")))
    | `Oversized n ->
      (* The stream cannot be resynchronized after an untrusted length:
         answer once, then close. *)
      ignore
        (send t fd
           (Json.to_string
              (Proto.error Proto.Oversized_frame
                 (Printf.sprintf "frame of %d bytes exceeds limit %d" n
                    t.cfg.max_frame_bytes))))
    | `Request payload ->
      let resp = process t ~conn_client payload in
      (* After answering the in-flight request, a draining server closes
         instead of reading further frames. *)
      if send t fd resp && not (stopping t) then serve ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ignore (Atomic.fetch_and_add t.active_conns (-1));
      Obs.Metrics.set g_connections (float_of_int (Atomic.get t.active_conns)))
    serve

(* ------------------------------------------------------------------ *)
(* Listening and lifecycle                                             *)
(* ------------------------------------------------------------------ *)

let bind_listener cfg =
  match cfg.addr with
  | Proto.Unix_sock path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    fd
  | Proto.Tcp (host, port) ->
    let inet =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 128;
    fd

(** The bound address — useful with [Tcp (host, 0)] (ephemeral port). *)
let bound_addr t =
  match t.listen_fd with
  | None -> t.cfg.addr
  | Some fd ->
    (match Unix.getsockname fd with
     | Unix.ADDR_UNIX path -> Proto.Unix_sock path
     | Unix.ADDR_INET (inet, port) -> Proto.Tcp (Unix.string_of_inet_addr inet, port))

let accept_loop t fd =
  let last_sweep = ref (Obs.now_ms ()) in
  let rec loop () =
    if stopping t then ()
    else begin
      (* Liveness heartbeat: the select deadline is 1 s, so a healthy
         accept loop stamps this at least once a second even when idle.
         /healthz turns a stale stamp into a 503. *)
      Atomic.set t.heartbeat_ms (Obs.now_ms ());
      (match Unix.select [ fd; t.wake_r ] [] [] 1.0 with
       | readable, _, _ ->
         if List.memq t.wake_r readable then begin
           let buf = Bytes.create 16 in
           ignore (try Unix.read t.wake_r buf 0 16 with Unix.Unix_error _ -> 0)
         end;
         if List.memq fd readable && not (stopping t) then begin
           match Unix.accept ~cloexec:true fd with
           | conn_fd, _ ->
             (match t.cfg.addr with
              | Proto.Tcp _ ->
                (try Unix.setsockopt conn_fd Unix.TCP_NODELAY true
                 with Unix.Unix_error _ -> ())
              | Proto.Unix_sock _ -> ());
             ignore (Atomic.fetch_and_add t.active_conns 1);
             ignore (Thread.create (fun () -> handle_connection t conn_fd) ())
           | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
         end
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if Obs.elapsed_ms ~since:!last_sweep > 1000.0 then begin
        last_sweep := Obs.now_ms ();
        let evicted = Session.Store.sweep t.store in
        (* TTL eviction is a close for durability purposes: without it a
           restart would resurrect sessions the live server dropped. *)
        (match t.persist with
         | Some p ->
           List.iter
             (fun (sid, _) ->
               try Persist.log_close p ~sid
               with Wal.Append_failed msg ->
                 (* Never kill the accept loop over disk pressure; the
                    un-logged eviction is re-evicted after a restart. *)
                 Obs.log Obs.Warn "server.wal_append_failed"
                   ~attrs:[ ("sid", Obs.Str sid); ("error", Obs.Str msg) ])
             evicted
         | None -> ());
        if evicted <> [] && Obs.enabled () then
          Obs.log Obs.Info "server.sessions_evicted"
            ~attrs:
              [ ("count", Obs.Int (List.length evicted));
                (* "<session>:<origin trace>" pairs so an evicted
                   session can be tied back to its opener's trace. *)
                ("sessions",
                 Obs.Str
                   (String.concat ","
                      (List.map
                         (fun (sid, tr) ->
                           if tr = "" then sid else sid ^ ":" ^ tr)
                         evicted))) ];
        Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
        Obs.Metrics.set g_queue_depth (float_of_int (Pool.depth t.pool))
      end;
      loop ()
    end
  in
  loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (match t.cfg.addr with
   | Proto.Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | Proto.Tcp _ -> ())

(* ------------------------------------------------------------------ *)
(* Health model                                                        *)
(* ------------------------------------------------------------------ *)

(* One named check per subsystem, registered in {!start} and dropped in
   {!wait}.  Checks read live state only — no I/O, no locks beyond the
   subsystems' own — so /readyz stays cheap enough to poll every second.
   Severity policy: [Failing] means "stop sending traffic here" (readyz
   503); [Degraded] means "watch it" (still ready — shedding load is the
   overload controller's job, not the load balancer's). *)
let health_check_names =
  [ "pool"; "brownout"; "sessions"; "wal"; "solve_cache"; "telemetry" ]

let register_health t =
  Health.register "pool" (fun () ->
      let depth = Pool.depth t.pool in
      if depth >= t.cfg.queue_capacity then
        Health.Degraded (Printf.sprintf "queue full (depth %d)" depth)
      else Health.Ok);
  Health.register "brownout" (fun () ->
      let level = Overload.Controller.level t.ctrl in
      if level > 0 then
        Health.Degraded (Printf.sprintf "brownout level %d" level)
      else Health.Ok);
  Health.register "sessions" (fun () ->
      let n = Session.Store.count t.store in
      if n >= t.cfg.max_sessions then
        Health.Degraded (Printf.sprintf "at capacity (%d)" n)
      else Health.Ok);
  Health.register "wal" (fun () ->
      match t.persist with
      | None -> Health.Ok (* volatile mode: nothing to fail *)
      | Some p ->
        (match Persist.last_append_error p with
         | Some msg -> Health.Failing ("append failing: " ^ msg)
         | None -> Health.Ok));
  Health.register "solve_cache" (fun () -> Health.Ok);
  Health.register "telemetry" (fun () ->
      if t.cfg.telemetry_port <> None && t.telemetry_fd = None then
        Health.Degraded "listener not running"
      else Health.Ok)

let unregister_health () = List.iter Health.unregister health_check_names

(* ------------------------------------------------------------------ *)
(* Telemetry endpoint                                                  *)
(* ------------------------------------------------------------------ *)

(* A deliberately tiny HTTP/1.0 server with three routes:

   - [/metrics]  — Prometheus exposition of the registry,
   - [/healthz]  — liveness: is the accept loop actually looping,
   - [/readyz]   — readiness: should a balancer send traffic here.

   One short-lived connection per request, handled inline on the
   telemetry thread — every response is a registry/health walk,
   microseconds.  Anything else is a 404; non-GET/HEAD is a 405; HEAD
   gets the headers (with the length the GET would have had) and no
   body. *)

let http_response ~code ~reason ~content_type ~head body =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    code reason content_type (String.length body)
    (if head then "" else body)

(* How stale the accept-loop heartbeat may get before /healthz reports
   the process wedged.  The loop stamps at least once a second, so 5 s
   of silence means it is stuck, not slow. *)
let healthz_stale_ms = 5000.0

let healthz_body t =
  let age_ms = Obs.elapsed_ms ~since:(Atomic.get t.heartbeat_ms) in
  let alive = (not (stopping t)) && age_ms <= healthz_stale_ms in
  ( alive,
    Json.to_string
      (Json.Obj
         [ ("status", Json.Str (if alive then "ok" else "failing"));
           ("heartbeat_age_ms", Json.Float age_ms);
           ("uptime_s", Json.Float (uptime_s t)) ]) )

let readyz_body t =
  let report = Health.run_all () in
  let ready = (not (stopping t)) && Health.culprits report = [] in
  (ready, Json.to_string (Health.to_json report))

let telemetry_respond t ~meth ~path =
  let head = meth = "HEAD" in
  let json = "application/json; charset=utf-8" in
  match meth with
  | "GET" | "HEAD" ->
    (match path with
     | "/metrics" ->
       Obs.Metrics.set g_queue_depth (float_of_int (Pool.depth t.pool));
       Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
       Obs.Metrics.set g_connections (float_of_int (Atomic.get t.active_conns));
       Obs.Metrics.set g_inflight (float_of_int (Atomic.get t.inflight));
       Obs.Metrics.set g_uptime (uptime_s t);
       http_response ~code:200 ~reason:"OK"
         ~content_type:"text/plain; version=0.0.4; charset=utf-8" ~head
         (Obs.Metrics.prometheus ())
     | "/healthz" ->
       let alive, body = healthz_body t in
       if alive then
         http_response ~code:200 ~reason:"OK" ~content_type:json ~head body
       else
         http_response ~code:503 ~reason:"Service Unavailable"
           ~content_type:json ~head body
     | "/readyz" ->
       let ready, body = readyz_body t in
       if ready then
         http_response ~code:200 ~reason:"OK" ~content_type:json ~head body
       else
         http_response ~code:503 ~reason:"Service Unavailable"
           ~content_type:json ~head body
     | _ ->
       http_response ~code:404 ~reason:"Not Found"
         ~content_type:"text/plain; charset=utf-8" ~head "not found\n")
  | _ ->
    http_response ~code:405 ~reason:"Method Not Allowed"
      ~content_type:"text/plain; charset=utf-8" ~head:false
      "method not allowed\n"

(* "METHOD SP PATH ..." — querystrings are stripped, the HTTP version
   (or its absence: HTTP/0.9) is ignored.  [None] = unparseable. *)
let parse_request_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some sp ->
    let meth = String.sub line 0 sp in
    let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
    let target =
      match String.index_opt rest ' ' with
      | Some sp2 -> String.sub rest 0 sp2
      | None -> rest
    in
    let path =
      match String.index_opt target '?' with
      | Some q -> String.sub target 0 q
      | None -> target
    in
    if meth = "" || path = "" then None else Some (meth, path)

(* Scrapes are handled inline on the telemetry thread, so one stalled
   scraper must never block the next: the request-read is bounded by a
   select deadline (a half-open socket that sends nothing is dropped
   after a second) and the response write is bounded too (a peer that
   connects but never drains its receive buffer would otherwise pin the
   thread in a blocking [write] once the exposition outgrows the socket
   buffer).  The exposition does outgrow it once per-verb histograms
   fill in — hence the deadline-looped full write, not one [write]. *)
let telemetry_read_timeout_s = 1.0
let telemetry_write_timeout_s = 5.0

let telemetry_serve t conn =
  (try
     let readable =
       match Unix.select [ conn ] [] [] telemetry_read_timeout_s with
       | r, _, _ -> r <> []
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
     in
     if readable then begin
       let buf = Bytes.create 1024 in
       let n = try Unix.read conn buf 0 1024 with Unix.Unix_error _ -> 0 in
       let req = Bytes.sub_string buf 0 (max n 0) in
       let line =
         match String.index_opt req '\r' with
         | Some i -> String.sub req 0 i
         | None ->
           (match String.index_opt req '\n' with
            | Some i -> String.sub req 0 i
            | None -> req)
       in
       let resp =
         match parse_request_line line with
         | Some (meth, path) -> telemetry_respond t ~meth ~path
         | None ->
           http_response ~code:400 ~reason:"Bad Request"
             ~content_type:"text/plain; charset=utf-8" ~head:false
             "bad request\n"
       in
       Frame.write_all ~timeout:telemetry_write_timeout_s conn
         (Bytes.unsafe_of_string resp) 0 (String.length resp)
     end
   with Unix.Unix_error _ | Frame.Write_timeout -> ());
  try Unix.close conn with Unix.Unix_error _ -> ()

let telemetry_loop t fd =
  let rec loop () =
    if stopping t then ()
    else begin
      (match Unix.select [ fd ] [] [] 0.5 with
       | [], _, _ -> ()
       | _ :: _, _, _ -> (
         match Unix.accept ~cloexec:true fd with
         | conn, _ -> telemetry_serve t conn
         | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ())

(** Where the telemetry endpoint is listening ([Some (host, port)] once
    started with [telemetry_port]; resolves an ephemeral port 0). *)
let telemetry_addr t =
  match t.telemetry_fd with
  | None -> None
  | Some fd ->
    (match Unix.getsockname fd with
     | Unix.ADDR_INET (inet, port) -> Some (Unix.string_of_inet_addr inet, port)
     | Unix.ADDR_UNIX _ -> None)

let start_telemetry t port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  t.telemetry_fd <- Some fd;
  t.telemetry_thread <- Some (Thread.create (fun () -> telemetry_loop t fd) ())

(* ------------------------------------------------------------------ *)
(* Ops loop: runtime sampling + SLO evaluation at ~1 Hz                 *)
(* ------------------------------------------------------------------ *)

let make_slo t =
  Slo.create ~on_event:(fun ev -> slo_event t ev)
    [ Slo.availability ~name:"availability" ~target:t.cfg.slo_availability_target
        ~good:(fun () ->
          float_of_int
            (Obs.Metrics.value m_requests - Obs.Metrics.value m_errors))
        ~total:(fun () -> float_of_int (Obs.Metrics.value m_requests));
      Slo.latency ~name:"repair_latency" ~target:t.cfg.slo_latency_target
        ~threshold_ms:t.cfg.slo_latency_ms (verb_latency "repair") ]

(* One thread owns the periodic work: GC/runtime sampling, SLO ticks and
   gauge refresh.  It sleeps in 0.1 s slices so [stop] is honoured
   within ~100 ms, but samples on 1 s boundaries.  Every 60th sample is
   a [live] one (the Gc.stat heap walk). *)
let ops_loop t =
  let tick = ref 0 in
  let next = ref (Obs.now_ms () +. 1000.0) in
  while not (stopping t) do
    Thread.delay 0.1;
    if (not (stopping t)) && Obs.now_ms () >= !next then begin
      next := !next +. 1000.0;
      incr tick;
      Runtime.sample ~interval_ms:1000.0 ~live:(!tick mod 60 = 0) ();
      (match t.slo with Some s -> Slo.tick s | None -> ());
      Obs.Metrics.set g_uptime (uptime_s t);
      Obs.Metrics.set g_queue_depth (float_of_int (Pool.depth t.pool));
      Obs.Metrics.set g_sessions (float_of_int (Session.Store.count t.store));
      Obs.Metrics.set g_inflight (float_of_int (Atomic.get t.inflight));
      Obs.Metrics.set g_connections (float_of_int (Atomic.get t.active_conns))
    end
  done

(** Bind and start accepting (non-blocking; see {!wait}). *)
let start t =
  if t.accept_thread <> None then invalid_arg "Server.start: already started";
  (* A client vanishing mid-write must not kill the host process, which
     need not be the CLI (tests and benches embed the server). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = bind_listener t.cfg in
  t.listen_fd <- Some fd;
  (match t.cfg.telemetry_port with
   | Some port -> start_telemetry t port
   | None -> ());
  if t.cfg.health_slo then begin
    register_health t;
    Runtime.install_alarm ();
    Runtime.set_build_info ();
    t.slo <- Some (make_slo t);
    t.ops_thread <- Some (Thread.create (fun () -> ops_loop t) ())
  end;
  if Obs.enabled () then
    Obs.log Obs.Info "server.listening"
      ~attrs:
        ([ ("addr", Obs.Str (Proto.addr_to_string (bound_addr t)));
           ("domains", Obs.Int t.cfg.domains);
           ("queue", Obs.Int t.cfg.queue_capacity) ]
         @ (match telemetry_addr t with
            | Some (host, port) ->
              [ ("telemetry", Obs.Str (Printf.sprintf "http://%s:%d/metrics" host port)) ]
            | None -> []));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t fd) ())

(** Wait for shutdown: joins the accept loop, drains connections (up to
    [drain_timeout_s]), then joins the worker pool and releases the
    telemetry listener, access log and flight recorder. *)
let wait t =
  (match t.accept_thread with
   | None -> invalid_arg "Server.wait: not started"
   | Some th -> Thread.join th);
  let drain_deadline = Obs.now_ms () +. (t.cfg.drain_timeout_s *. 1000.0) in
  while Atomic.get t.active_conns > 0 && Obs.now_ms () < drain_deadline do
    Thread.delay 0.01
  done;
  Pool.shutdown t.pool;
  (match t.ops_thread with
   | Some th -> Thread.join th; t.ops_thread <- None
   | None -> ());
  if t.cfg.health_slo then unregister_health ();
  (match t.telemetry_thread with
   | Some th -> Thread.join th; t.telemetry_thread <- None; t.telemetry_fd <- None
   | None -> ());
  (match t.access_oc with
   | Some oc ->
     t.access_oc <- None;
     (try flush oc; close_out oc with Sys_error _ -> ())
   | None -> ());
  (match t.persist with Some p -> Persist.close p | None -> ());
  (match t.flight with Some (sink, _) -> Obs.uninstall sink | None -> ());
  if Obs.enabled () then
    Obs.log Obs.Info "server.stopped"
      ~attrs:[ ("undrained_connections", Obs.Int (Atomic.get t.active_conns)) ]

(** [run t] = {!start} + {!wait}: serve until a signal / [shutdown]. *)
let run t =
  start t;
  wait t
