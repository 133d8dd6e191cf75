(* The DART command-line interface.

   Subcommands mirror the architecture of Figure 2:

     dart-cli gen      generate a (possibly OCR-corrupted) input document
     dart-cli extract  acquisition + extraction: document -> CSV database
     dart-cli check    inconsistency detection against the constraints
     dart-cli repair   one-shot card-minimal repair (prints the updates)
     dart-cli run      the supervised pipeline with an interactive operator
     dart-cli serve    run the repair service (Unix socket or TCP)
     dart-cli client   talk to a running service

   Scenarios: cash-budget (the paper's running example), balance-sheet,
   catalog, quarterly. *)

open Cmdliner
open Dart
open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_datagen
open Dart_rand
module Obs = Dart_obs.Obs

(* ------------------------------------------------------------------ *)
(* Observability flags (shared by every subcommand)                    *)
(* ------------------------------------------------------------------ *)

let log_level_arg =
  let levels =
    [ ("debug", Obs.Debug); ("info", Obs.Info); ("warn", Obs.Warn); ("error", Obs.Error) ]
  in
  Arg.(
    value
    & opt (some (enum levels)) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Log events to stderr at $(docv) and above (debug, info, warn, error). \
           At debug, completed spans are printed too.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of all pipeline/solver spans to \
           $(docv); load it in chrome://tracing or ui.perfetto.dev.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Dump the metrics registry (counters, gauges, histograms) as JSON to $(docv).")

(* Installs the requested sinks and returns an idempotent finalizer that
   closes them (finalizing the Chrome trace's JSON array) and writes the
   metrics snapshot.  Long-running commands (serve) call it explicitly on
   their graceful-drain path so telemetry survives SIGINT/SIGTERM; an
   [at_exit] backstop covers one-shot commands and [exit 1] paths. *)
let obs_setup log_level trace_out metrics_out =
  (* Fail fast with a clean message on unwritable output paths, rather than
     crashing (--trace-out) or silently losing the snapshot at exit
     (--metrics-out). *)
  let open_or_die what path =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "dart-cli: cannot open %s file: %s\n" what msg;
      exit 2
  in
  (match log_level with
   | None -> ()
   | Some lvl ->
     Obs.set_level lvl;
     Obs.install (Obs.text_sink ~min_level:lvl stderr));
  let trace_oc = Option.map (open_or_die "trace") trace_out in
  (match trace_oc with
   | Some oc -> Obs.install (Obs.chrome_trace_sink oc)
   | None -> ());
  let metrics_oc = Option.map (open_or_die "metrics") metrics_out in
  let finalized = ref false in
  let finalize () =
    if not !finalized then begin
      finalized := true;
      Obs.close_sinks ();
      (match trace_oc with
       | Some oc -> (try close_out oc with Sys_error _ -> ())
       | None -> ());
      match metrics_oc with
      | None -> ()
      | Some oc ->
        output_string oc (Obs.Json.to_string (Obs.Metrics.snapshot ()));
        output_char oc '\n';
        (try close_out oc with Sys_error _ -> ())
    end
  in
  at_exit finalize;
  finalize

let obs_term =
  Term.(const obs_setup $ log_level_arg $ trace_out_arg $ metrics_out_arg)

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

type scenario_kind = Cash_budget_s | Balance_sheet_s | Catalog_s | Quarterly_s

let scenario_of = function
  | Cash_budget_s -> Budget_scenario.scenario
  | Balance_sheet_s -> Balance_scenario.scenario
  | Catalog_s -> Catalog_scenario.scenario
  | Quarterly_s -> Quarterly_scenario.scenario

let scenario_arg =
  let parse = function
    | "cash-budget" -> Ok Cash_budget_s
    | "balance-sheet" -> Ok Balance_sheet_s
    | "catalog" -> Ok Catalog_s
    | "quarterly" -> Ok Quarterly_s
    | s -> Error (`Msg (Printf.sprintf "unknown scenario %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
       | Cash_budget_s -> "cash-budget"
       | Balance_sheet_s -> "balance-sheet"
       | Catalog_s -> "catalog"
       | Quarterly_s -> "quarterly")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Cash_budget_s
    & info [ "s"; "scenario" ] ~docv:"SCENARIO"
        ~doc:"Scenario metadata to use: cash-budget, balance-sheet, catalog or quarterly.")

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Input document (HTML/CSV/TSV/fixed-width text).")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let acquire_from kind path =
  let scenario = scenario_of kind in
  let text = read_file path in
  let format = Convert.format_of_filename path in
  (scenario, Pipeline.acquire scenario ~format text)

let relation_of_kind = function
  | Cash_budget_s -> Cash_budget.relation_name
  | Balance_sheet_s -> Balance_sheet.relation_name
  | Catalog_s -> Catalog.relation_name
  | Quarterly_s -> Quarterly.relation_name

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let years =
    Arg.(value & opt int 2 & info [ "years" ] ~docv:"N" ~doc:"Years to generate.")
  in
  let seed = Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let noise =
    Arg.(
      value & opt float 0.0
      & info [ "noise" ] ~docv:"P" ~doc:"OCR corruption rate per cell (0 disables).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Output file (default stdout).")
  in
  let run _finalize kind years seed noise out =
    let prng = Prng.create seed in
    let channel =
      if noise > 0.0 then
        Some { Dart_ocr.Noise.numeric_rate = noise; string_rate = noise; char_rate = 0.12 }
      else None
    in
    let html =
      match kind with
      | Cash_budget_s ->
        let db = Cash_budget.generate ~years prng in
        fst (Doc_render.cash_budget_html ?channel ?prng:(Option.map (fun _ -> prng) channel) db)
      | Balance_sheet_s ->
        let db = Balance_sheet.generate ~years prng in
        fst (Balance_sheet.to_html ?channel ?prng:(Option.map (fun _ -> prng) channel) db)
      | Catalog_s ->
        let db = Catalog.generate prng in
        Catalog.to_html ?channel ?prng:(Option.map (fun _ -> prng) channel) db
      | Quarterly_s ->
        let db = Quarterly.generate ~years prng in
        Quarterly.to_html ?channel ?prng:(Option.map (fun _ -> prng) channel) db
    in
    match out with
    | None -> print_string html
    | Some path ->
      let oc = open_out path in
      output_string oc html;
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic input document (optionally OCR-corrupted).")
    Term.(const run $ obs_term $ scenario_arg $ years $ seed $ noise $ out)

(* ------------------------------------------------------------------ *)
(* extract                                                             *)
(* ------------------------------------------------------------------ *)

let extract_cmd =
  let run _finalize kind path =
    let _scenario, acq = acquire_from kind path in
    let matched = List.length acq.Pipeline.extraction.Dart_wrapper.Extractor.instances in
    let total = List.length acq.Pipeline.extraction.Dart_wrapper.Extractor.reports in
    Printf.eprintf "extracted %d/%d rows (mean score %.3f)\n" matched total
      (Dart_wrapper.Extractor.mean_score acq.Pipeline.extraction);
    print_string (Csv.of_relation acq.Pipeline.db (relation_of_kind kind))
  in
  Cmd.v
    (Cmd.info "extract" ~doc:"Acquire a document and dump the extracted relation as CSV.")
    Term.(const run $ obs_term $ scenario_arg $ input_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run _finalize kind path =
    let scenario, acq = acquire_from kind path in
    match Violation_report.of_constraints acq.Pipeline.db scenario.Scenario.constraints with
    | [] ->
      Printf.printf "consistent: all %d constraints satisfied\n"
        (List.length scenario.Scenario.constraints)
    | entries ->
      Format.printf "%a" Violation_report.pp (Violation_report.by_severity entries);
      exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Detect inconsistencies w.r.t. the scenario's constraints.")
    Term.(const run $ obs_term $ scenario_arg $ input_arg)

(* ------------------------------------------------------------------ *)
(* repair                                                              *)
(* ------------------------------------------------------------------ *)

let repair_cmd =
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Abort the solve after $(docv) milliseconds, degrading to the best \
             answer found so far (provenance incumbent/greedy_fallback).")
  in
  let solve_report =
    Arg.(
      value & opt (some string) None
      & info [ "solve-report" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable solve report (schema \
             $(b,dart-solve-report/1)) to $(docv): per-component phase-time \
             attribution, branch-and-bound effort and gap-convergence \
             timelines.  Render it with $(b,dart-cli report).")
  in
  let run _finalize kind path deadline_ms solve_report =
    let scenario, acq = acquire_from kind path in
    let cancel =
      match deadline_ms with
      | Some ms -> Dart_resilience.Cancel.create ~deadline_ms:ms ()
      | None -> Dart_resilience.Cancel.none
    in
    let write_report result =
      match solve_report with
      | None -> ()
      | Some out ->
        let stats =
          Option.value ~default:Solver.empty_stats (Solver.result_stats result)
        in
        let oc =
          try open_out out
          with Sys_error msg ->
            Printf.eprintf "dart-cli repair: cannot open solve-report file: %s\n" msg;
            exit 2
        in
        output_string oc (Obs.Json.to_string (Solver.report_json stats));
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "solve report written to %s\n" out
    in
    if Pipeline.detect scenario acq.Pipeline.db = [] then begin
      write_report Solver.Consistent;
      print_endline "already consistent; no repair needed"
    end
    else begin
      let result = Pipeline.repair ~cancel scenario acq.Pipeline.db in
      write_report result;
      match result with
      | Solver.Consistent -> print_endline "already consistent; no repair needed"
      | Solver.Repaired (rho, prov, stats) ->
        Printf.printf
          "card-minimal repair (%s): %d update(s) [%d components, %d nodes, %d pivots, %.2f ms]\n"
          (Solver.provenance_to_string prov) (Repair.cardinality rho)
          stats.Solver.components stats.Solver.nodes
          stats.Solver.simplex_pivots stats.Solver.solve_ms;
        let rows = Ground.of_constraints acq.Pipeline.db scenario.Scenario.constraints in
        List.iter
          (fun u -> Format.printf "  %a@." (Update.pp acq.Pipeline.db) u)
          (Solver.display_order rows rho)
      | Solver.No_repair _ -> print_endline "no repair exists"; exit 1
      | Solver.Node_budget_exceeded _ -> print_endline "search truncated"; exit 1
      | Solver.Cancelled _ ->
        print_endline "deadline exceeded; no repair available"; exit 1
    end
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"Propose a card-minimal repair for an inconsistent document.")
    Term.(const run $ obs_term $ scenario_arg $ input_arg $ deadline $ solve_report)

(* ------------------------------------------------------------------ *)
(* export-milp                                                         *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let run _finalize kind path =
    let scenario, acq = acquire_from kind path in
    let rows = Ground.of_constraints acq.Pipeline.db scenario.Scenario.constraints in
    let enc = Encode.build acq.Pipeline.db rows in
    let module Io = Dart_lp.Lp_io.Make (Dart_lp.Field_rat) in
    print_string (Io.to_string enc.Encode.problem)
  in
  Cmd.v
    (Cmd.info "export-milp"
       ~doc:"Print the S*(AC) MILP instance of a document in CPLEX LP format.")
    Term.(const run $ obs_term $ scenario_arg $ input_arg)

(* ------------------------------------------------------------------ *)
(* run (interactive validation loop)                                   *)
(* ------------------------------------------------------------------ *)

let interactive_operator ~db:_ : Validation.operator =
 fun ~cell:(_, attr) ~tuple ~suggested ->
  Format.printf "@.suggested update on %a@.  %s := %s   [a]ccept / [o]verride? %!"
    Tuple.pp tuple attr (Value.to_string suggested);
  let rec ask () =
    match String.lowercase_ascii (String.trim (read_line ())) with
    | "a" | "accept" | "" -> Validation.Accept
    | "o" | "override" ->
      Format.printf "  actual value: %!";
      (match int_of_string_opt (String.trim (read_line ())) with
       | Some n -> Validation.Override (Value.Int n)
       | None ->
         Format.printf "  not an integer, try again: %!";
         ask ())
    | _ ->
      Format.printf "  please answer a or o: %!";
      ask ()
  in
  (try ask () with End_of_file -> Validation.Accept)

let run_cmd =
  let auto =
    Arg.(
      value & flag
      & info [ "auto" ] ~doc:"Accept every suggested update without prompting.")
  in
  let run _finalize kind path auto =
    let scenario, acq = acquire_from kind path in
    let operator : Validation.operator =
      if auto then fun ~cell:_ ~tuple:_ ~suggested:_ -> Validation.Accept
      else interactive_operator ~db:acq.Pipeline.db
    in
    let outcome = Pipeline.validate scenario ~operator acq.Pipeline.db in
    Printf.printf "\nconverged=%b iterations=%d updates-examined=%d\n"
      outcome.Validation.converged outcome.Validation.iterations outcome.Validation.examined;
    Printf.printf "solver effort: %d milp nodes, %d simplex pivots (%d simplex solves)\n"
      (Obs.Metrics.value (Obs.Metrics.counter "milp.nodes"))
      (Obs.Metrics.value (Obs.Metrics.counter "lp.simplex.pivots"))
      (Obs.Metrics.value (Obs.Metrics.counter "lp.simplex.solves"));
    Printf.printf "warm starts: %d (%d dual pivots, %d fallbacks)\n"
      (Obs.Metrics.value (Obs.Metrics.counter "lp.simplex.warm_starts"))
      (Obs.Metrics.value (Obs.Metrics.counter "lp.simplex.dual_pivots"))
      (Obs.Metrics.value (Obs.Metrics.counter "repair.warm_fallbacks"));
    print_string (Csv.of_relation outcome.Validation.final_db (relation_of_kind kind))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Full supervised pipeline: acquire, repair, validate interactively, print CSV.")
    Term.(const run $ obs_term $ scenario_arg $ input_arg $ auto)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

module Proto = Dart_server.Proto
module Server = Dart_server.Server
module Client = Dart_server.Client

let all_scenarios =
  [ ("cash-budget", Budget_scenario.scenario);
    ("balance-sheet", Balance_scenario.scenario);
    ("catalog", Catalog_scenario.scenario);
    ("quarterly", Quarterly_scenario.scenario) ]

let addr_conv =
  let parse s =
    let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
    let after p = String.sub s (String.length p) (String.length s - String.length p) in
    if prefixed "unix:" then Ok (Proto.Unix_sock (after "unix:"))
    else if prefixed "tcp:" then begin
      let rest = after "tcp:" in
      match String.rindex_opt rest ':' with
      | None -> Error (`Msg "tcp address must be tcp:HOST:PORT")
      | Some i ->
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        (match int_of_string_opt port with
         | Some p when p >= 0 -> Ok (Proto.Tcp (host, p))
         | _ -> Error (`Msg (Printf.sprintf "bad port %S" port)))
    end
    else Ok (Proto.Unix_sock s)  (* a bare path is a Unix socket *)
  in
  let print fmt a = Format.pp_print_string fmt (Proto.addr_to_string a) in
  Arg.conv (parse, print)

let addr_arg =
  Arg.(
    value
    & opt addr_conv (Proto.Unix_sock "/tmp/dart.sock")
    & info [ "a"; "addr" ] ~docv:"ADDR"
        ~doc:
          "Listen/connect address: $(b,unix:)$(i,PATH), $(b,tcp:)$(i,HOST:PORT), \
           or a bare Unix-socket path.  Default unix:/tmp/dart.sock.")

let serve_cmd =
  let domains =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker pool size (default: cores - 1, capped at 8).")
  in
  let queue =
    Arg.(
      value & opt (some int) None
      & info [ "queue" ] ~docv:"N" ~doc:"Job queue bound; beyond it requests get busy.")
  in
  let ttl =
    Arg.(
      value & opt (some float) None
      & info [ "session-ttl" ] ~docv:"SECONDS" ~doc:"Idle validation sessions expire after this.")
  in
  let chaos =
    Arg.(
      value & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection for chaos testing, as \
             $(i,key=value) pairs: e.g. \
             $(b,seed=42,crash=0.1,stall=0.2,stall-ms=50,truncate=0.05,corrupt=0.05,delay=0.2,delay-ms=20,slowloris=0.1,slowloris-ms=300,flood=0.05,flood-burst=8).")
  in
  let telemetry_port =
    Arg.(
      value & opt (some int) None
      & info [ "telemetry-port" ] ~docv:"PORT"
          ~doc:
            "Serve the metrics registry in Prometheus text format over HTTP on \
             127.0.0.1:$(docv) (0 picks an ephemeral port; the bound address \
             is printed at startup).  $(b,curl http://127.0.0.1:PORT/metrics) \
             to scrape.")
  in
  let flight_dir =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Enable the flight recorder: recent span/log events are kept in a \
             bounded per-domain ring buffer, and any request ending in a \
             deadline abort, worker crash or injected fault dumps its trace's \
             events to $(docv)/flight-<trace_id>-<reason>.jsonl.")
  in
  let access_log =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per request to $(docv): op, trace id, \
             outcome, latency, queue wait, solve provenance, final \
             branch-and-bound gap (gap at deadline for degraded repairs), \
             bytes in/out.")
  in
  let access_log_max_bytes =
    Arg.(
      value & opt (some int) None
      & info [ "access-log-max-bytes" ] ~docv:"N"
          ~doc:
            "Rotate the access log once it exceeds $(docv) bytes, keeping \
             one rotated generation (FILE.1). 0 disables rotation.")
  in
  let data_dir =
    Arg.(
      value & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Make validation sessions durable: session-shaping events \
             (open, decisions, close) are logged to a sharded WAL under \
             $(docv) with periodic compacting snapshots, and a restart \
             replays them so clients resume mid-validation with identical \
             state — even after $(b,kill -9).  Without it sessions are \
             volatile (lost on restart).")
  in
  let wal_shards =
    Arg.(
      value & opt (some int) None
      & info [ "wal-shards" ] ~docv:"N"
          ~doc:
            "WAL shard count for a fresh $(b,--data-dir) (an existing \
             directory keeps its recorded layout).  Default 4.")
  in
  let snapshot_every =
    Arg.(
      value & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Snapshot and truncate a WAL shard after $(docv) appended \
             events; bounds recovery time and disk use.  Default 64.")
  in
  let solve_cache_mb =
    Arg.(
      value & opt int 64
      & info [ "solve-cache-mb" ] ~docv:"MB"
          ~doc:
            "Budget (in MB) of the process-wide solve cache: repeated \
             repair sub-instances (same constraints, values and pins) \
             across requests reuse the earlier answer.  Answers are \
             byte-identical either way.  0 disables.  Default 64.")
  in
  let no_overload =
    Arg.(
      value & flag
      & info [ "no-overload" ]
          ~doc:
            "Disable overload control.  Otherwise, as measured queue wait \
             climbs, the server tightens per-request solver budgets (full \
             effort -> pruned tree -> incumbent-only -> greedy), recovering \
             when load drains, and sheds clients over their token-bucket \
             rate with a retryable $(b,overloaded) error.  The bounded \
             queue's $(b,busy) backpressure still applies.")
  in
  let run finalize addr domains queue ttl chaos telemetry_port flight_dir
      access_log access_log_max_bytes data_dir wal_shards snapshot_every
      solve_cache_mb no_overload =
    let cfg = Server.default_config ~scenarios:all_scenarios addr in
    let faults =
      match chaos with
      | None -> cfg.Server.faults
      | Some spec ->
        (match Dart_faultsim.Faultsim.spec_of_string spec with
         | Ok c -> Dart_faultsim.Faultsim.create c
         | Error msg ->
           Printf.eprintf "dart-cli serve: %s\n" msg;
           exit 2)
    in
    let cfg =
      { cfg with
        Server.domains = Option.value ~default:cfg.Server.domains domains;
        queue_capacity = Option.value ~default:cfg.Server.queue_capacity queue;
        session_ttl_s = Option.value ~default:cfg.Server.session_ttl_s ttl;
        faults; telemetry_port; flight_dir; access_log;
        access_log_max_bytes =
          Option.value ~default:cfg.Server.access_log_max_bytes
            access_log_max_bytes;
        data_dir;
        wal_shards = Option.value ~default:cfg.Server.wal_shards wal_shards;
        snapshot_every =
          Option.value ~default:cfg.Server.snapshot_every snapshot_every;
        solve_cache_mb;
        overload = not no_overload }
    in
    let t = Server.create cfg in
    Server.install_signal_handlers t;
    Server.start t;
    Printf.eprintf "dart-cli serve: listening on %s (%d domains, queue %d)\n%!"
      (Proto.addr_to_string (Server.bound_addr t))
      cfg.Server.domains cfg.Server.queue_capacity;
    (match Server.recovery t with
     | Some r ->
       Printf.eprintf
         "dart-cli serve: recovered %d session(s) from %s (%d expired, %d \
          failed, %d damaged shard(s))\n\
          %!"
         r.Dart_server.Persist.rec_recovered
         (Option.value ~default:"?" cfg.Server.data_dir)
         r.Dart_server.Persist.rec_expired r.Dart_server.Persist.rec_failed
         r.Dart_server.Persist.rec_damaged_shards
     | None -> ());
    (match Server.telemetry_addr t with
     | Some (host, port) ->
       Printf.eprintf "dart-cli serve: telemetry on http://%s:%d/metrics\n%!"
         host port
     | None -> ());
    Server.wait t;
    (* Graceful-drain path: flush and close sinks (and write --metrics-out)
       here, not in at_exit, so SIGINT/SIGTERM cannot lose buffered
       telemetry. *)
    finalize ();
    Printf.eprintf "dart-cli serve: stopped\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the DART repair service: a concurrent server speaking the \
          length-prefixed JSON protocol, with all four scenarios registered.")
    Term.(
      const run $ obs_term $ addr_arg $ domains $ queue $ ttl $ chaos
      $ telemetry_port $ flight_dir $ access_log $ access_log_max_bytes
      $ data_dir $ wal_shards $ snapshot_every $ solve_cache_mb $ no_overload)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let wire_format path =
  match Convert.format_of_filename path with
  | Convert.Html -> "html"
  | Convert.Csv -> "csv"
  | Convert.Tsv -> "tsv"
  | Convert.Fixed_width -> "fixed"

let die fmt = Printf.ksprintf (fun msg -> Printf.eprintf "dart-cli client: %s\n" msg; exit 1) fmt

let print_relations body =
  match Option.bind (Proto.member "relations" body) Proto.as_list with
  | None -> ()
  | Some rels ->
    List.iter
      (fun r ->
        match (Proto.string_field r "relation", Proto.string_field r "csv") with
        | Some name, Some csv ->
          Printf.printf "-- %s\n%s" name csv
        | _ -> ())
      rels

let print_repair_body body =
  let status = Option.value ~default:"?" (Proto.string_field body "status") in
  (match Option.bind (Proto.member "updates" body) Proto.as_list with
   | None -> Printf.printf "%s\n" status
   | Some updates ->
     Printf.printf "%s: %d update(s)\n" status (List.length updates);
     List.iter
       (fun u ->
         match
           ( Proto.int_field u "tid", Proto.string_field u "attr",
             Proto.string_field u "old", Proto.string_field u "new" )
         with
         | Some tid, Some attr, Some old_v, Some new_v ->
           Printf.printf "  t%d.%s: %s -> %s\n" tid attr old_v new_v
         | _ -> ())
       updates);
  match Proto.member "stats" body with
  | Some stats ->
    Printf.printf "stats: %s\n" (Dart_obs.Obs.Json.to_string stats)
  | None -> ()

let interactive_wire_operator : Client.operator =
 fun s ->
  Printf.printf "\nsuggested update on %s\n  %s := %s (was %s)   [a]ccept / [o]verride? %!"
    s.Client.tuple s.Client.attr s.Client.suggested s.Client.current;
  let rec ask () =
    match String.lowercase_ascii (String.trim (read_line ())) with
    | "a" | "accept" | "" -> `Accept
    | "o" | "override" ->
      Printf.printf "  actual value: %!";
      `Override (String.trim (read_line ()))
    | _ ->
      Printf.printf "  please answer a or o: %!";
      ask ()
  in
  (try ask () with End_of_file -> `Accept)

let client_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "One of: ping, stats, metrics, shutdown, acquire, detect, repair, \
             validate. The last four need a $(i,FILE).")
  in
  let file_arg =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE" ~doc:"Input document.")
  in
  let auto =
    Arg.(
      value & flag
      & info [ "auto" ] ~doc:"validate: accept every suggestion without prompting.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline in milliseconds.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transient failures ($(b,busy), dropped connections) up to \
             $(docv) times with exponential backoff and jitter, reconnecting \
             each attempt.")
  in
  let run _finalize addr op file kind auto deadline_ms retries =
    let need_file () =
      match file with
      | Some path -> path
      | None -> die "op %S needs a FILE argument" op
    in
    let scenario_name = function
      | Cash_budget_s -> "cash-budget"
      | Balance_sheet_s -> "balance-sheet"
      | Catalog_s -> "catalog"
      | Quarterly_s -> "quarterly"
    in
    (* Each branch returns the printing step as a thunk, so retried
       attempts never emit partial output. *)
    let exec c : (unit -> unit, string) result =
      let doc_op f =
        let path = need_file () in
        f ~scenario:(scenario_name kind) ~document:(read_file path)
          ?format:(Some (wire_format path)) ()
      in
      match op with
      | "ping" -> Result.map (fun () () -> print_endline "pong") (Client.ping c)
      | "stats" ->
        Result.map
          (fun body () -> print_endline (Dart_obs.Obs.Json.to_string body))
          (Client.stats c)
      | "metrics" ->
        Result.map (fun text () -> print_string text) (Client.metrics c)
      | "shutdown" ->
        Result.map (fun () () -> print_endline "server stopping") (Client.shutdown c)
      | "acquire" ->
        Result.map
          (fun body () -> print_relations body)
          (doc_op (Client.acquire ?deadline_ms c))
      | "detect" ->
        Result.map
          (fun body () -> print_endline (Dart_obs.Obs.Json.to_string body))
          (doc_op (Client.detect ?deadline_ms c))
      | "repair" ->
        Result.map
          (fun body () -> print_repair_body body)
          (doc_op (Client.repair ?deadline_ms c))
      | "validate" ->
        let operator = if auto then Client.accept_all else interactive_wire_operator in
        let path = need_file () in
        Result.map
          (fun o () ->
            Printf.printf "status=%s iterations=%d examined=%d pins=%d\n"
              o.Client.status o.Client.iterations o.Client.examined o.Client.pins;
            List.iter
              (fun (name, csv) -> Printf.printf "-- %s\n%s" name csv)
              o.Client.relations;
            if o.Client.status <> "converged" then exit 1)
          (Client.validate ?deadline_ms c ~scenario:(scenario_name kind)
             ~document:(read_file path) ~format:(wire_format path) ~operator ())
      | other -> die "unknown op %S" other
    in
    let result =
      if retries <= 0 then Client.with_connection addr exec
      else
        let policy =
          { Dart_resilience.Retry.default_policy with max_attempts = retries + 1 }
        in
        Client.with_retries ~policy addr exec
    in
    match result with
    | Ok print -> print ()
    | Error e -> die "%s" e
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Issue requests to a running DART repair service (see $(b,serve)).")
    Term.(
      const run $ obs_term $ addr_arg $ op_arg $ file_arg $ scenario_arg $ auto
      $ deadline $ retries)

(* ------------------------------------------------------------------ *)
(* report (render a solve report)                                      *)
(* ------------------------------------------------------------------ *)

(* Rendering helpers for `dart-cli report`: a fixed-width table printer
   and a bar-chart timeline, all plain ASCII so the output pastes into
   issues and commit messages. *)

let render_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let line cells =
    String.concat "  "
      (List.map2
         (fun w c -> Printf.sprintf "%*s" w c)
         widths cells)
  in
  print_endline (line headers);
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> print_endline (line row)) rows

(* A gap-over-time bar chart: time on the x axis (resampled to [w]
   columns, carrying the last seen gap forward), gap on the y axis. *)
let render_gap_timeline pts =
  match pts with
  | [] -> ()
  | _ ->
    let gmax = List.fold_left (fun a (_, g) -> Float.max a g) 0.0 pts in
    let tmax = List.fold_left (fun a (t, _) -> Float.max a t) 0.0 pts in
    if gmax <= 0.0 then
      Printf.printf "  gap closed to 0 immediately (%d point(s), %.2f ms)\n"
        (List.length pts) (tmax /. 1000.0)
    else begin
      let w = 60 and h = 8 in
      let cols = Array.make w 0.0 in
      let filled = Array.make w false in
      List.iter
        (fun (t, g) ->
          let c =
            if tmax <= 0.0 then 0
            else min (w - 1) (int_of_float (t /. tmax *. float_of_int (w - 1)))
          in
          cols.(c) <- g;
          filled.(c) <- true)
        pts;
      (* Carry the last known gap forward through unsampled columns. *)
      let last = ref (match pts with (_, g) :: _ -> g | [] -> 0.0) in
      for c = 0 to w - 1 do
        if filled.(c) then last := cols.(c) else cols.(c) <- !last
      done;
      for row = h downto 1 do
        let threshold = float_of_int row /. float_of_int h *. gmax in
        let label =
          if row = h then Printf.sprintf "%8.4f " gmax
          else if row = 1 then Printf.sprintf "%8.4f " (threshold)
          else String.make 9 ' '
        in
        let bars =
          String.init w (fun c ->
              if cols.(c) +. 1e-12 >= threshold then '#' else ' ')
        in
        Printf.printf "  %s|%s\n" label bars
      done;
      Printf.printf "  %s+%s\n" (String.make 9 ' ') (String.make w '-');
      Printf.printf "  %s0 ms%*s%.2f ms\n" (String.make 10 ' ')
        (w - 10) "" (tmax /. 1000.0)
    end

let report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REPORT"
          ~doc:"Solve-report JSON written by $(b,dart-cli repair --solve-report).")
  in
  let run _finalize path =
    let die fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "dart-cli report: %s\n" msg;
          exit 2)
        fmt
    in
    let j =
      match Obs.Json.of_string (read_file path) with
      | Ok j -> j
      | Error msg -> die "%s: %s" path msg
    in
    (match Proto.string_field j "schema" with
     | Some "dart-solve-report/1" -> ()
     | Some other -> die "unsupported report schema %S" other
     | None -> die "%s is not a solve report (missing \"schema\")" path);
    let inum o k = Option.value ~default:0 (Proto.int_field o k) in
    let fnum o k = Option.value ~default:0.0 (Proto.float_field o k) in
    let totals = Option.value ~default:(Obs.Json.Obj []) (Proto.member "totals" j) in
    Printf.printf
      "solve report: %d component(s), %d ground row(s), %d cell(s)\n"
      (inum totals "components") (inum totals "ground_rows") (inum totals "cells");
    Printf.printf
      "  MILP: %d vars, %d rows; B&B: %d node(s), %d simplex pivot(s) (%d dual)\n"
      (inum totals "milp_vars") (inum totals "milp_rows") (inum totals "nodes")
      (inum totals "simplex_pivots") (inum totals "dual_pivots");
    Printf.printf
      "  warm starts %d (fallbacks %d), big-M retries %d, wall clock %.2f ms\n"
      (inum totals "warm_starts") (inum totals "warm_fallbacks")
      (inum totals "m_retries") (fnum totals "solve_ms");
    (match Option.bind (Proto.member "gap" totals) Proto.as_float with
     | Some g -> Printf.printf "  final gap: %.6f\n" g
     | None -> ());
    (* Phase breakdown. *)
    let phase_rows phases =
      let total =
        List.fold_left (fun acc (_, p) -> acc +. fnum p "total_us") 0.0 phases
      in
      List.map
        (fun (name, p) ->
          let us = fnum p "total_us" in
          [ name; string_of_int (inum p "count");
            Printf.sprintf "%.3f" (us /. 1000.0);
            (if total > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. us /. total)
             else "-") ])
        phases
    in
    (match Proto.member "phases" j with
     | Some (Obs.Json.Obj phases) when phases <> [] ->
       Printf.printf "\nphase breakdown (all components):\n";
       render_table [ "phase"; "calls"; "total ms"; "share" ] (phase_rows phases)
     | _ -> ());
    (* Per-component summary. *)
    let comps =
      Option.value ~default:[]
        (Option.bind (Proto.member "components" j) Proto.as_list)
    in
    if comps <> [] then begin
      Printf.printf "\nper-component summary:\n";
      render_table
        [ "comp"; "rows"; "cells"; "vars"; "nodes"; "pivots"; "retries";
          "status"; "gap" ]
        (List.map
           (fun c ->
             [ string_of_int (inum c "component");
               string_of_int (inum c "rows"); string_of_int (inum c "cells");
               string_of_int (inum c "milp_vars");
               string_of_int (inum c "nodes");
               string_of_int (inum c "simplex_pivots");
               string_of_int (inum c "m_retries");
               Option.value ~default:"?" (Proto.string_field c "status");
               (match Option.bind (Proto.member "gap" c) Proto.as_float with
                | Some g -> Printf.sprintf "%.4f" g
                | None -> "-") ])
           comps)
    end;
    (* Gap timelines. *)
    List.iter
      (fun c ->
        let pts =
          Option.value ~default:[]
            (Option.bind (Proto.member "gap_timeline" c) Proto.as_list)
        in
        let pts =
          List.filter_map
            (fun p ->
              match Proto.as_list p with
              | Some [ t; g ] -> (
                match (Proto.as_float t, Proto.as_float g) with
                | Some t, Some g -> Some (t, g)
                | _ -> None)
              | _ -> None)
            pts
        in
        if pts <> [] then begin
          Printf.printf "\ncomponent %d gap timeline (%d point(s)):\n"
            (inum c "component") (List.length pts);
          render_gap_timeline pts
        end)
      comps
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a solve report written by $(b,repair --solve-report): phase \
          breakdown, per-component summary and ASCII gap-convergence \
          timelines.")
    Term.(const run $ obs_term $ file)

(* ------------------------------------------------------------------ *)
(* top: live ops console over the telemetry endpoint                   *)
(* ------------------------------------------------------------------ *)

(* One-shot HTTP/1.0 GET against the telemetry listener; returns the
   status code and body.  No keep-alive, no chunking — the server always
   answers with Content-Length + Connection: close. *)
let telemetry_get ~host ~port path =
  let inet =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (inet, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n -> Buffer.add_subbytes buf chunk 0 n; drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let code =
        match String.index_opt raw ' ' with
        | Some i ->
          (try int_of_string (String.trim (String.sub raw (i + 1) 3))
           with _ -> 0)
        | None -> 0
      in
      let body =
        let n = String.length raw in
        let rec find i =
          if i + 4 > n then ""
          else if String.sub raw i 4 = "\r\n\r\n" then
            String.sub raw (i + 4) (n - i - 4)
          else find (i + 1)
        in
        find 0
      in
      (code, body))

(* Unlabeled "name value" samples from a Prometheus exposition; labeled
   series and comments are skipped (the console only needs scalars and
   the derived quantile gauges). *)
let parse_exposition text =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.index_opt line ' ' with
        | Some i ->
          let name = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (match float_of_string_opt (String.trim v) with
           | Some f -> Hashtbl.replace tbl name f
           | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  tbl

let top_cmd =
  let telemetry_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"HOST:PORT"
          ~doc:"Telemetry endpoint of a running server (see $(b,serve --telemetry-port)).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single snapshot and exit (no screen clearing).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N" ~doc:"Stop after $(docv) refreshes (0 = run until interrupted).")
  in
  let run _finalize target interval once count =
    let die fmt =
      Printf.ksprintf
        (fun msg -> Printf.eprintf "dart-cli top: %s\n" msg; exit 2)
        fmt
    in
    let host, port =
      match String.rindex_opt target ':' with
      | Some i ->
        let h = String.sub target 0 i in
        let p = String.sub target (i + 1) (String.length target - i - 1) in
        (match int_of_string_opt p with
         | Some p when h <> "" -> (h, p)
         | _ -> die "bad --telemetry %S (want HOST:PORT)" target)
      | None -> die "bad --telemetry %S (want HOST:PORT)" target
    in
    let get name v = Option.value ~default:0.0 (Hashtbl.find_opt v name) in
    let fmt_count f =
      if f >= 1_000_000.0 then Printf.sprintf "%.1fM" (f /. 1_000_000.0)
      else if f >= 10_000.0 then Printf.sprintf "%.0fk" (f /. 1000.0)
      else Printf.sprintf "%.0f" f
    in
    let prev = ref None in
    let iter = ref 0 in
    let continue = ref true in
    while !continue do
      incr iter;
      (match
         (try Ok (telemetry_get ~host ~port "/metrics")
          with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
       with
       | Error e -> die "cannot reach %s:%d: %s" host port e
       | Ok (code, _) when code <> 200 -> die "/metrics returned HTTP %d" code
       | Ok (_, text) ->
         let m = parse_exposition text in
         let ready_code, ready_body =
           try telemetry_get ~host ~port "/readyz"
           with Unix.Unix_error _ -> (0, "")
         in
         if not once then print_string "\027[H\027[2J";
         let now = Unix.gettimeofday () in
         let rate name =
           match !prev with
           | Some (t0, p) when now > t0 ->
             Printf.sprintf "%6.1f/s" ((get name m -. get name p) /. (now -. t0))
           | _ -> "       -"
         in
         Printf.printf "dart-cli top — %s:%d  up %.0fs  ready: %s\n" host port
           (get "server_uptime_s" m)
           (match ready_code with
            | 200 -> "yes"
            | 503 -> "NO"
            | 0 -> "?"
            | c -> Printf.sprintf "HTTP %d" c);
         Printf.printf "\nrequests  %s total   %s   errors %s   shed %s\n"
           (fmt_count (get "server_requests" m))
           (rate "server_requests")
           (rate "server_errors") (rate "server_shed");
         Printf.printf
           "latency   p50 %7.2fms   p95 %7.2fms   p99 %7.2fms   (n=%s)\n"
           (get "server_latency_ms_p50" m) (get "server_latency_ms_p95" m)
           (get "server_latency_ms_p99" m)
           (fmt_count (get "server_latency_ms_count" m));
         Printf.printf
           "load      queue %3.0f   inflight %3.0f   conns %3.0f   sessions %3.0f   brownout L%.0f\n"
           (get "server_queue_depth" m) (get "server_inflight" m)
           (get "server_connections" m) (get "server_sessions" m)
           (get "server_brownout_level" m);
         Printf.printf
           "runtime   heap %5.1fMB   gc minor %s major %s   fds %3.0f   hb-lag p99 %.1fms\n"
           (get "runtime_gc_heap_words" m *. float_of_int (Sys.word_size / 8)
            /. 1.0e6)
           (fmt_count (get "runtime_gc_minor_collections" m))
           (fmt_count (get "runtime_gc_major_collections" m))
           (get "runtime_fds" m)
           (get "runtime_heartbeat_lag_ms_p99" m);
         (* Every slo.<name>.budget_remaining gauge in the scrape. *)
         let slos =
           Hashtbl.fold
             (fun name _ acc ->
               let suffix = "_budget_remaining" in
               if String.length name > 4 + String.length suffix
                  && String.sub name 0 4 = "slo_"
                  && String.sub name
                       (String.length name - String.length suffix)
                       (String.length suffix)
                     = suffix
               then
                 String.sub name 4
                   (String.length name - 4 - String.length suffix)
                 :: acc
               else acc)
             m []
           |> List.sort compare
         in
         List.iter
           (fun s ->
             Printf.printf
               "slo       %-16s budget %5.1f%%   burn 1m %6.2f   1h %6.2f\n" s
               (100.0 *. get (Printf.sprintf "slo_%s_budget_remaining" s) m)
               (get (Printf.sprintf "slo_%s_burn_rate_1m" s) m)
               (get (Printf.sprintf "slo_%s_burn_rate_1h" s) m))
           slos;
         (* Health culprits from /readyz (also rendered when ready). *)
         (match Obs.Json.of_string ready_body with
          | Ok j ->
            let checks =
              Option.value ~default:[]
                (Option.bind (Proto.member "checks" j) Proto.as_list)
            in
            let bad =
              List.filter_map
                (fun c ->
                  match (Proto.string_field c "name", Proto.string_field c "status") with
                  | Some n, Some s when s <> "ok" ->
                    Some
                      (Printf.sprintf "%s:%s%s" n s
                         (match Proto.string_field c "detail" with
                          | Some d -> " (" ^ d ^ ")"
                          | None -> ""))
                  | _ -> None)
                checks
            in
            if bad <> [] then
              Printf.printf "health    %s\n" (String.concat "  " bad)
            else
              Printf.printf "health    all %d checks ok\n" (List.length checks)
          | Error _ -> ());
         print_newline ();
         prev := Some (now, m));
      if once || (count > 0 && !iter >= count) then continue := false
      else Unix.sleepf interval
    done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live ops console: poll a running server's telemetry endpoint \
          ($(b,/metrics) + $(b,/readyz)) and render request rates, latency \
          quantiles, GC/runtime stats, SLO burn rates and health.")
    Term.(const run $ obs_term $ telemetry_arg $ interval $ once $ count)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "dart-cli" ~version:"1.0.0"
       ~doc:"DART: data acquisition and repairing tool (EDBT 2006 reproduction).")
    [ gen_cmd; extract_cmd; check_cmd; repair_cmd; export_cmd; run_cmd;
      serve_cmd; client_cmd; report_cmd; top_cmd ]

let () = exit (Cmd.eval main)
