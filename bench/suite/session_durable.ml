(* session-durable: supervised validation over the wire against a
   [dart-cli serve --data-dir] subprocess.  Two operators in a closed loop
   each open a session, then repeat next → decide until it converges,
   then close it.  The operator is an oracle: it accepts a suggestion that
   matches the true value and overrides anything else with the truth, so
   every session must converge to the uncorrupted document.

   The server's WAL flushes every record to the OS and never fsyncs (its
   only policy); a [kill -9] therefore loses nothing the client saw
   answered.  After the timed window sixteen sessions are left
   mid-validation, the server is killed with SIGKILL and restarted on the
   same data directory, and every recovered session must still converge
   to the truth. *)

open Dart
open Dart_relational
module J = Dart_obs.Obs.Json
module Obs = Dart_obs.Obs
module Proto = Dart_server.Proto
module Client = Dart_server.Client
module Wal = Dart_durable.Wal

let max_rounds = 50

type case = {
  doc : Docs.doc;
  truth : Database.t;   (* the clean render, acquired: same tuple ids *)
}

let case ~smoke ~seed i =
  let kind, years, errors =
    if i mod 2 = 0 then (Docs.Cash_budget, (if smoke then 2 else 8), (if smoke then 1 else 3))
    else (Docs.Balance_sheet, (if smoke then 1 else 3), (if smoke then 1 else 2))
  in
  let doc = Docs.corrupted kind ~years ~errors (Docs.prng_for ~workload:"session-durable" ~seed i) in
  let clean = Docs.render kind doc.Docs.truth in
  { doc; truth = (Pipeline.acquire (Docs.scenario kind) clean).Pipeline.db }

let truth_value c tid attr =
  let tu = Database.find c.truth tid in
  let rs = Schema.relation (Database.schema c.truth) (Tuple.relation tu) in
  Value.to_string (Tuple.value_by_name rs tu attr)

let truth_relations c =
  List.map
    (fun rel -> (rel, Csv.of_relation c.truth rel))
    (Schema.relation_names (Database.schema c.truth))

(* What one session did. *)
type outcome = {
  ok : bool;                 (* converged to the truth without errors *)
  why : string;
  open_ms : float;
  rounds_ms : float list;    (* next + decide, per round *)
  requests_ms : float list;  (* each next and decide on its own *)
  pins : int;
  finished_ms : float;
}

let status body = Option.value ~default:"?" (Proto.string_field body "status")

(* Drive a session from [body] (the reply to open, or to any later
   request) to convergence.  [rounds] collects (next, decide) times. *)
let rec validate c cl ~sid ~rounds body =
  match status body with
  | "converged" ->
    if Client.relations_of_json body = truth_relations c then Ok (rounds, body)
    else Error "converged to something other than the truth"
  | "failed" ->
    Error ("session failed: " ^ Option.value ~default:"?" (Proto.string_field body "reason"))
  | _ when List.length rounds >= max_rounds -> Error "did not converge"
  | _ -> (
    let t0 = Obs.now_ms () in
    match Client.session_next cl ~session:sid with
    | Error e -> Error ("next: " ^ e)
    | Ok next when status next <> "pending" -> validate c cl ~sid ~rounds next
    | Ok next ->
      let next_ms = Obs.elapsed_ms ~since:t0 in
      let suggestions =
        Option.value ~default:[] (Option.bind (Proto.member "updates" next) Proto.as_list)
        |> List.filter_map Client.suggestion_of_json
      in
      let decisions =
        List.map
          (fun (s : Client.suggestion) ->
            let truth = truth_value c s.Client.tid s.Client.attr in
            { Proto.d_tid = s.Client.tid; d_attr = s.Client.attr;
              d_kind = (if s.Client.suggested = truth then `Accept else `Override truth) })
          suggestions
      in
      let t1 = Obs.now_ms () in
      match Client.session_decide cl ~session:sid decisions with
      | Error e -> Error ("decide: " ^ e)
      | Ok body ->
        validate c cl ~sid ~rounds:((next_ms, Obs.elapsed_ms ~since:t1) :: rounds) body)

let open_session c cl =
  Client.session_open cl ~scenario:(Docs.wire_name c.doc.Docs.kind) ~document:c.doc.Docs.html ()
  |> Result.map (fun body -> (Option.value ~default:"?" (Proto.string_field body "session"), body))

let run_session c cl =
  let t0 = Obs.now_ms () in
  let fail why open_ms =
    { ok = false; why; open_ms; rounds_ms = []; requests_ms = []; pins = 0;
      finished_ms = Obs.now_ms () }
  in
  match open_session c cl with
  | Error e -> fail ("open: " ^ e) 0.0
  | Ok (sid, body) ->
    let open_ms = Obs.elapsed_ms ~since:t0 in
    let r = validate c cl ~sid ~rounds:[] body in
    let closed = Client.session_close cl ~session:sid in
    (match (r, closed) with
     | Ok (rounds, body), Ok _ ->
       { ok = true; why = ""; open_ms; rounds_ms = List.map (fun (n, d) -> n +. d) rounds;
         requests_ms = List.concat_map (fun (n, d) -> [ n; d ]) rounds;
         pins = Option.value ~default:0 (Proto.int_field body "pins"); finished_ms = Obs.now_ms () }
     | Ok _, Error e -> fail ("close: " ^ e) open_ms
     | Error e, _ -> fail e open_ms)

let connect srv = Client.connect ~timeout_s:Wire.op_timeout_s srv.Proc.addr

let start ~dir ~data =
  let srv = Proc.spawn ~dir ~data_dir:data () in
  match Proc.wait_ready srv with Ok () -> srv | Error e -> failwith e

(* The closed loop: two operators, each on its own connection, take the
   next case until the window has passed and [min_rounds] rounds are in
   (p90 needs ten samples beyond it, also on a slow machine), but for no
   more than four windows. *)
let closed_loop srv ~cases ~seconds ~min_rounds =
  let mu = Mutex.create () in
  let next = ref 0 and outcomes = ref [] and rounds = ref 0 in
  let t_start = Obs.now_ms () in
  let operator () =
    let cl = connect srv in
    Fun.protect ~finally:(fun () -> Client.close cl) (fun () ->
        let rec loop () =
          Mutex.lock mu;
          let i = !next in
          incr next;
          let windows = (Obs.now_ms () -. t_start) /. (seconds *. 1000.0) in
          let go = windows < 1.0 || (!rounds < min_rounds && windows < 4.0) in
          Mutex.unlock mu;
          if go then begin
            let o = run_session (cases i) cl in
            Mutex.lock mu;
            outcomes := o :: !outcomes;
            rounds := !rounds + List.length o.rounds_ms;
            Mutex.unlock mu;
            loop ()
          end
        in
        loop ())
  in
  let th = Thread.create operator () in
  operator ();
  Thread.join th;
  (!outcomes, t_start)

let run (o : Report.opts) : Report.t =
  let smoke = o.Report.smoke in
  let dir = Proc.work_dir "session-durable" in
  (* Set-up: generate the sessions' documents and start a server on a
     fresh data directory.  A run that outlasts the pool generates further
     cases as it goes. *)
  let pool_size = if smoke then 8 else 256 in
  let data = Filename.concat dir "data" in
  let (pool, srv), setup_s =
    Report.repeated_setup 3
      ~setup:(fun () -> (Array.init pool_size (case ~smoke ~seed:o.seed), start ~dir ~data))
      ~teardown:(fun (_, srv) ->
        Proc.stop srv;
        Proc.rm_rf data)
  in
  let cases i = if i < pool_size then pool.(i) else case ~smoke ~seed:o.seed i in
  Tracer.enabled := o.traced;
  let snapshot srv = Client.with_connection srv.Proc.addr Wire.snapshot in
  let before = snapshot srv in
  let outcomes, t_start =
    closed_loop srv ~cases ~seconds:o.seconds ~min_rounds:(if smoke then 0 else 120)
  in
  let after = snapshot srv in
  let ctl = connect srv in
  (* Leave sessions mid-validation, crash the server, recover. *)
  let crashed = List.init (if smoke then 2 else 16) (fun i -> cases (1_000_000 + i)) in
  let left =
    List.map
      (fun c ->
        match open_session c ctl with
        | Ok (sid, _) -> (c, sid)
        | Error e -> failwith ("opening a session to crash: " ^ e))
      crashed
  in
  let rss_mb = Proc.peak_rss_mb srv.Proc.pid in
  Client.close ctl;
  Proc.stop ~signal:Sys.sigkill srv;
  let copy = Filename.concat dir "data-copy" in
  Proc.copy_tree data copy;
  let t0 = Obs.now_ms () in
  let srv = start ~dir ~data in
  let recover_s = Obs.elapsed_ms ~since:t0 /. 1000.0 in
  let cl = connect srv in
  let recovered = Wire.field (Wire.snapshot cl) [ "durable"; "sessions_recovered" ] in
  let resumed =
    List.map
      (fun (c, sid) ->
        match Client.session_next cl ~session:sid with
        | Error e -> Error ("after restart: " ^ e)
        | Ok body -> Result.map (fun _ -> ()) (validate c cl ~sid ~rounds:[] body))
      left
  in
  Client.close cl;
  Proc.stop srv;
  let replay_ms =
    let t0 = Obs.now_ms () in
    for shard = 0 to Option.value ~default:0 (Wal.meta_shards copy) - 1 do
      ignore (Wal.replay_shard ~dir:copy ~shard)
    done;
    Obs.elapsed_ms ~since:t0
  in
  let failed_sessions = List.filter (fun s -> not s.ok) outcomes in
  let rounds = List.concat_map (fun s -> s.rounds_ms) outcomes in
  let problems =
    List.filteri (fun i _ -> i < 5) (List.map (fun s -> s.why) failed_sessions)
    @ (if int_of_float recovered <> List.length left then
         [ Printf.sprintf "%.0f sessions recovered, %d were left open" recovered (List.length left) ]
       else [])
    @ List.filter_map (function Error e -> Some e | Ok () -> None) resumed
    @ Report.sample_problems o rounds
  in
  let converged = List.length outcomes - List.length failed_sessions in
  let attempted = List.length outcomes and failed = List.length failed_sessions in
  let end_to_end =
    let last = List.fold_left (fun acc s -> Float.max acc s.finished_ms) t_start outcomes in
    Report.end_to_end ~setup_s
      ~ops_per_s:(float_of_int converged /. ((last -. t_start) /. 1000.0)) ~lat_ms:rounds
      ~attempted ~failed ~exact:converged ~answers:attempted ~rss_mb
  in
  let per_layer =
    if not o.traced then []
    else begin
      let nrounds = float_of_int (max 1 (List.length rounds)) in
      let requests = Wire.delta before after "server.requests" in
      let sessions = float_of_int (max 1 attempted) in
      let mean l = Stats.mean l in
      let requests_ms = List.concat_map (fun s -> s.requests_ms) outcomes in
      Report.per_layer
        (Wire.server_layers before after ~ops:(int_of_float requests)
           ~client_p50_ms:(Stats.percentile (Stats.sorted requests_ms) 50.0)
         @ Inproc.acquire_layers (List.init 8 (fun i -> (cases i).doc))
         @ [ ("session.open_ms", mean (List.map (fun s -> s.open_ms) outcomes));
             ("session.rounds_per_session", nrounds /. sessions);
             ("session.pins_per_session",
              float_of_int (List.fold_left (fun a s -> a + s.pins) 0 outcomes) /. sessions);
             ("durable.wal_bytes_per_round", Wire.delta before after "durable.wal_bytes" /. nrounds);
             ("durable.wal_events", Wire.delta before after "durable.wal_appends" /. nrounds);
             ("durable.replay_ms", replay_ms); ("durable.recovered", recovered);
             ("recover_s", recover_s) ])
    end
  in
  { Report.workload = "session-durable"; seed = o.seed; traced = o.traced; correct = problems = [];
    attempted; failed = failed + List.length (List.filter Result.is_error resumed);
    end_to_end; per_layer; problems }
