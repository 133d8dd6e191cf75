(* overload — behaviour at 1x/3x/10x offered load, with and without the
   overload-control layer: the brownout ladder, which tightens solver
   budgets as measured queue wait climbs, and the per-client token
   buckets that shed over-rate clients once the server is browned out.

   A small in-process server (2 worker domains, solve cache and
   coalescing off so every request is a real solve) is first measured
   closed-loop at its natural capacity (1x), [capacity_runs] times: the
   gate ratios divide by the median 1x goodput and p99, because a single
   4 s run moves by about 20% on its own.  Then the client pool is
   scaled to 3x and 10x that concurrency; at 10x two slowloris
   attackers (partial frame, then silence) hold connections open for the
   whole run.  Finally 10x is repeated with the overload layer disabled
   (--no-overload) to document the collapse the layer prevents.

   Per run we record goodput (useful answers/s), shed/busy/deadline
   counts, latency percentiles of the answered requests, the provenance
   mix (exact / incumbent / greedy_fallback — the brownout ladder made
   visible), the deepest brownout level reached, and whether the
   slowloris connections were disconnected by the read armor.

   Writes BENCH_overload.json. *)

open Dart
open Dart_datagen
open Dart_rand
open Dart_server
module Obs = Dart_obs.Obs
module Json = Obs.Json
module Solver = Dart_repair.Solver
module Baseline = Dart_repair.Baseline
module Pipeline = Dart.Pipeline
module Overload = Dart_resilience.Overload

let out_file = "BENCH_overload.json"

let scenarios = [ ("cash-budget", Budget_scenario.scenario) ]
let scenario = Budget_scenario.scenario

let base_clients = 4            (* closed-loop concurrency at 1x *)
let run_seconds = 6.0
let capacity_seconds = 4.0
let capacity_runs = 3
let warmup_seconds = 2.0        (* let the controller settle before measuring *)
let deadline_ms = 2000.0
let pace_s = 0.005              (* tiny think time so sheds don't spin *)

let n_domains = 2               (* small on purpose: 10x must be reachable *)

let doc ?(years = 1) seed =
  let prng = Prng.create seed in
  let truth = Cash_budget.generate ~years prng in
  let channel =
    { Dart_ocr.Noise.numeric_rate = 0.1; string_rate = 0.0; char_rate = 0.1 }
  in
  fst (Doc_render.cash_budget_html ~channel ~prng truth)

(* Documents where detection finds violations AND the greedy baseline
   converges, so the deepest brownout tier still produces a repair
   instead of node_budget_exceeded.  Deterministic: scan seeds in order. *)
let pick_docs n =
  let rec go acc seed =
    if List.length acc >= n then List.rev acc
    else
      let html = doc seed in
      let usable =
        match Pipeline.acquire scenario ~format:Convert.Html html with
        | acq ->
          Pipeline.detect scenario acq.Pipeline.db <> []
          && Baseline.greedy acq.Pipeline.db scenario.Scenario.constraints
             <> None
        | exception _ -> false
      in
      go (if usable then html :: acc else acc) (seed + 1)
  in
  Array.of_list (go [] 1)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))

let m_shed = Obs.Metrics.counter "server.shed"
let m_slow_closes = Obs.Metrics.counter "server.slow_client_closes"

(* ------------------------------------------------------------------ *)
(* One load run                                                        *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable ok_repaired : int;    (* repaired/consistent/no_repair: useful *)
  mutable ok_truncated : int;   (* node_budget_exceeded/cancelled bodies *)
  mutable shed : int;
  mutable busy : int;
  mutable deadline : int;
  mutable other : int;
  mutable provenance : (string * int) list;
  latencies : float list ref;   (* of useful answers *)
}

let new_tally () =
  { ok_repaired = 0; ok_truncated = 0; shed = 0; busy = 0; deadline = 0;
    other = 0; provenance = []; latencies = ref [] }

let bump_prov t p =
  t.provenance <-
    (p, 1 + Option.value ~default:0 (List.assoc_opt p t.provenance))
    :: List.remove_assoc p t.provenance

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let classify t ~lat = function
  | Ok body -> (
    match Option.value ~default:"?" (Proto.string_field body "status") with
    | "repaired" | "consistent" | "no_repair" ->
      t.ok_repaired <- t.ok_repaired + 1;
      t.latencies := lat :: !(t.latencies);
      bump_prov t
        (Option.value ~default:"none" (Proto.string_field body "provenance"))
    | _ -> t.ok_truncated <- t.ok_truncated + 1)
  | Error msg ->
    if has_prefix "overloaded" msg then t.shed <- t.shed + 1
    else if has_prefix "busy" msg then t.busy <- t.busy + 1
    else if has_prefix "deadline_exceeded" msg then t.deadline <- t.deadline + 1
    else t.other <- t.other + 1

(* A slowloris attacker: half a frame header, then silence.  Returns
   whether the server cut the connection before [max_wait_s]. *)
let slowloris_probe path max_wait_s result =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX path);
     ignore (Unix.write_substring fd "\x00\x00" 0 2);
     let buf = Bytes.create 1 in
     let deadline = Unix.gettimeofday () +. max_wait_s in
     let rec wait () =
       if Unix.gettimeofday () > deadline then result := `Still_open
       else
         match Unix.select [ fd ] [] [] 0.25 with
         | [], _, _ -> wait ()
         | _ -> (
           match Unix.read fd buf 0 1 with
           | 0 -> result := `Closed
           | _ -> wait ()
           | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
             result := `Closed)
     in
     wait ()
   with Unix.Unix_error _ -> result := `Closed);
  try Unix.close fd with Unix.Unix_error _ -> ()

let run_load ~label ~overload ~multiplier ~slowloris ~docs
    ~duration_s =
  let path =
    Printf.sprintf "/tmp/dart-bench-ovl-%d-%s.sock" (Unix.getpid ()) label
  in
  let cfg = Server.default_config ~scenarios (Proto.Unix_sock path) in
  let cfg =
    { cfg with
      Server.domains = n_domains; queue_capacity = 32;
      solve_cache_mb = 0; coalesce = false; overload;
      frame_read_timeout_s = 1.0 }
  in
  let srv = Server.create cfg in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let nclients = base_clients * multiplier in
      let ndocs = Array.length docs in
      let shed0 = ref (Obs.Metrics.value m_shed) in
      let slow0 = Obs.Metrics.value m_slow_closes in
      let tallies = Array.init nclients (fun _ -> new_tally ()) in
      (* Measure steady state: the first couple of seconds are the
         controller's ramp (dwell-gated level steps) and would smear the
         transition into the percentiles of every run equally. *)
      let measure_from = Unix.gettimeofday () +. warmup_seconds in
      let stop_at = measure_from +. duration_s in
      let max_level = ref 0 in
      let watcher =
        Thread.create
          (fun () ->
            let snapped = ref false in
            while Unix.gettimeofday () < stop_at do
              if (not !snapped) && Unix.gettimeofday () >= measure_from
              then begin
                (* rebase the shed metric at the same instant tallies
                   start counting *)
                shed0 := Obs.Metrics.value m_shed;
                snapped := true
              end;
              max_level :=
                max !max_level
                  (Overload.Controller.level srv.Server.ctrl);
              Thread.delay 0.05
            done)
          ()
      in
      let slow_results =
        Array.init (if slowloris then 2 else 0) (fun _ -> ref `Still_open)
      in
      let slow_threads =
        Array.to_list
          (Array.map
             (fun r ->
               Thread.create
                 (fun () -> slowloris_probe path (duration_s +. 5.0) r)
                 ())
             slow_results)
      in
      let threads =
        List.init nclients (fun ci ->
            Thread.create
              (fun () ->
                let tally = tallies.(ci) in
                let client = Printf.sprintf "bench-%d" (ci mod 8) in
                let rec session r =
                  (* Reconnect per batch so a connection killed under
                     chaos does not end the thread. *)
                  if Unix.gettimeofday () < stop_at then begin
                    (try
                       Client.with_connection ~client (Proto.Unix_sock path)
                         (fun c ->
                           while Unix.gettimeofday () < stop_at do
                             let d = docs.((ci + r) mod ndocs) in
                             let rt0 = Obs.now_ms () in
                             let resp =
                               Client.repair ~deadline_ms c
                                 ~scenario:"cash-budget" ~document:d ()
                             in
                             if Unix.gettimeofday () >= measure_from then
                               classify tally
                                 ~lat:(Obs.elapsed_ms ~since:rt0) resp;
                             Thread.delay pace_s
                           done)
                     with _ -> Thread.delay 0.01);
                    session (r + 1)
                  end
                in
                session 0)
              ())
      in
      List.iter Thread.join threads;
      List.iter Thread.join slow_threads;
      Thread.join watcher;
      (* The server must still be alive and answering after the storm. *)
      let alive =
        match
          Client.with_connection (Proto.Unix_sock path) (fun c ->
              Client.ping c)
        with
        | Ok () -> true
        | Error _ | exception _ -> false
      in
      let total = new_tally () in
      Array.iter
        (fun tl ->
          total.ok_repaired <- total.ok_repaired + tl.ok_repaired;
          total.ok_truncated <- total.ok_truncated + tl.ok_truncated;
          total.shed <- total.shed + tl.shed;
          total.busy <- total.busy + tl.busy;
          total.deadline <- total.deadline + tl.deadline;
          total.other <- total.other + tl.other;
          List.iter (fun (p, n) ->
              total.provenance <-
                (p, n + Option.value ~default:0
                          (List.assoc_opt p total.provenance))
                :: List.remove_assoc p total.provenance)
            tl.provenance;
          total.latencies := !(tl.latencies) @ !(total.latencies))
        tallies;
      let lats = Array.of_list !(total.latencies) in
      Array.sort compare lats;
      let sent =
        total.ok_repaired + total.ok_truncated + total.shed + total.busy
        + total.deadline + total.other
      in
      let goodput = float_of_int total.ok_repaired /. duration_s in
      let shed_metric = Obs.Metrics.value m_shed - !shed0 in
      let slow_closes = Obs.Metrics.value m_slow_closes - slow0 in
      let slowloris_closed =
        Array.for_all (fun r -> !r = `Closed) slow_results
      in
      let json =
        Json.Obj
          [ ("label", Json.Str label);
            ("multiplier", Json.Int multiplier);
            ("clients", Json.Int nclients);
            ("overload", Json.Bool overload);
            ("slowloris_attackers", Json.Int (Array.length slow_results));
            ("duration_s", Json.Float duration_s);
            ("warmup_s", Json.Float warmup_seconds);
            ("sent", Json.Int sent);
            ("answered", Json.Int total.ok_repaired);
            ("goodput_rps", Json.Float goodput);
            ("truncated", Json.Int total.ok_truncated);
            ("shed", Json.Int total.shed);
            ("shed_rate",
             Json.Float
               (if sent = 0 then 0.0
                else float_of_int total.shed /. float_of_int sent));
            ("busy", Json.Int total.busy);
            ("deadline_exceeded", Json.Int total.deadline);
            ("other_errors", Json.Int total.other);
            ("accepted_p50_ms", Json.Float (percentile lats 50.0));
            ("accepted_p99_ms", Json.Float (percentile lats 99.0));
            ("provenance",
             Json.Obj
               (List.map (fun (p, n) -> (p, Json.Int n)) total.provenance));
            ("max_brownout_level", Json.Int !max_level);
            ("server_shed_metric", Json.Int shed_metric);
            ("slow_client_closes", Json.Int slow_closes);
            ("slowloris_all_closed", Json.Bool slowloris_closed);
            ("server_alive_after", Json.Bool alive) ]
      in
      (json, goodput, percentile lats 99.0, total.shed, alive,
       (not slowloris) || slowloris_closed))

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf "overload: admission + brownout under 1x/3x/10x -> %s\n%!"
    out_file;
  let docs = pick_docs 8 in
  Fun.protect ~finally:(fun () -> Solver.Cache.set_budget_bytes 0) @@ fun () ->
  let x1_runs =
    List.init capacity_runs (fun i ->
        let ((_, good, p99, _, _, _) as r) =
          run_load ~label:(Printf.sprintf "x1-%d" i) ~overload:true
            ~multiplier:1 ~slowloris:false ~docs ~duration_s:capacity_seconds
        in
        Printf.printf "  1x (run %d):  %.1f good/s, p99 %.0fms\n%!" i good p99;
        r)
  in
  let median_of f = Report.median (List.map f x1_runs) in
  let good1 = median_of (fun (_, g, _, _, _, _) -> g) in
  let p99_1 = median_of (fun (_, _, p, _, _, _) -> p) in
  (* [x1] is the run with the median goodput ([capacity_runs] is odd, so
     that is one run's), so the CI's check of 10x goodput against [x1]
     uses the same denominator as the ratios. *)
  let j1, _, _, _, _, _ =
    List.find (fun (_, g, _, _, _, _) -> g = good1) x1_runs
  in
  let alive1 = List.for_all (fun (_, _, _, _, a, _) -> a) x1_runs in
  Printf.printf "  1x median: %.1f good/s, p99 %.0fms\n%!" good1 p99_1;
  let j3, good3, p99_3, _, alive3, _ =
    run_load ~label:"x3" ~overload:true ~multiplier:3
      ~slowloris:false ~docs ~duration_s:run_seconds
  in
  Printf.printf "  3x:  %.1f good/s, p99 %.0fms\n%!" good3 p99_3;
  let j10, good10, p99_10, shed10, alive10, slow_ok =
    run_load ~label:"x10" ~overload:true ~multiplier:10
      ~slowloris:true ~docs ~duration_s:run_seconds
  in
  Printf.printf "  10x: %.1f good/s, p99 %.0fms, %d shed (slowloris closed: %b)\n%!"
    good10 p99_10 shed10 slow_ok;
  let j10_off, good10_off, p99_10_off, _, alive_off, _ =
    run_load ~label:"x10-no-overload" ~overload:false ~multiplier:10
      ~slowloris:true ~docs ~duration_s:run_seconds
  in
  Printf.printf "  10x (overload off): %.1f good/s, p99 %.0fms\n%!" good10_off
    p99_10_off;
  let json =
    Json.Obj
      [ ("workload",
         Json.Obj
           [ ("scenario", Json.Str "cash-budget");
             ("documents", Json.Int (Array.length docs));
             ("base_clients", Json.Int base_clients);
             ("domains", Json.Int n_domains);
             ("deadline_ms", Json.Float deadline_ms);
             ("solve_cache", Json.Bool false);
             ("coalesce", Json.Bool false) ]);
        ("x1", j1);
        ("x1_runs", Json.List (List.map (fun (j, _, _, _, _, _) -> j) x1_runs));
        ("x1_goodput_median_rps", Json.Float good1);
        ("x1_p99_median_ms", Json.Float p99_1);
        ("x3", j3);
        ("x10", j10);
        ("x10_no_overload", j10_off);
        ("goodput_retention_at_10x",
         Json.Float (if good1 > 0.0 then good10 /. good1 else 0.0));
        ("p99_inflation_at_10x",
         Json.Float (if p99_1 > 0.0 then p99_10 /. p99_1 else 0.0));
        ("all_servers_alive",
         Json.Bool (alive1 && alive3 && alive10 && alive_off)) ]
  in
  let text = Json.to_string json in
  (match Json.of_string text with
   | Ok _ -> ()
   | Error msg -> failwith ("BENCH_overload.json is not valid JSON: " ^ msg));
  let oc = open_out out_file in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "  retention at 10x: %.2f (>= 0.5 wanted), p99 inflation: %.2fx\n%!"
    (if good1 > 0.0 then good10 /. good1 else 0.0)
    (if p99_1 > 0.0 then p99_10 /. p99_1 else 0.0);
  if not (alive1 && alive3 && alive10 && alive_off) then
    failwith "a server stopped answering during the overload bench";
  if not slow_ok then
    failwith "slowloris connections were not disconnected by the read armor"
