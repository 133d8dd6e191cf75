(* slo — health/SLO engine overhead and burn-rate detection latency.

   Two measurements into BENCH_slo.json:

   1. [overhead]: the same wire workload as the obs bench, with
      [health_slo = false] (no ops thread, no runtime sampler, no SLO
      engine, no health checks) and with the default [true], in
      [overhead_pairs] off/on pairs whose order alternates.  The gate is
      the median of the per-pair overheads, at most 10% — the engine must
      be cheap enough to leave on everywhere.  A single pair of short
      runs is too noisy to see a 10% cost (one such run read -29%).

   2. [burn_detection]: an injected latency fault against a synthetic
      latency SLO, ticked directly (no wall clock): after a healthy
      minute, every "request" suddenly takes 500 ms against a 100 ms
      objective.  We count ticks until the fast-burn alert fires; the
      bar is "within one fast window" (<= 60 ticks at 1 Hz). *)

open Dart
open Dart_datagen
open Dart_rand
open Dart_server
module Obs = Dart_obs.Obs
module Slo = Dart_obs.Slo

let out_file = "BENCH_slo.json"

let noisy_doc seed =
  let prng = Prng.create seed in
  let truth = Cash_budget.generate ~years:3 prng in
  let channel =
    { Dart_ocr.Noise.numeric_rate = 0.1; string_rate = 0.0; char_rate = 0.1 }
  in
  fst (Doc_render.cash_budget_html ~channel ~prng truth)

let overhead_clients = 2
let overhead_per_client = 16
let overhead_pairs = 5

(* One timed run of the wire workload with or without the health/SLO
   machinery; returns req/s. *)
let overhead_run ~tag ~docs ~health_slo =
  let path =
    Printf.sprintf "/tmp/dart-slobench-%d-%s.sock" (Unix.getpid ()) tag
  in
  let scenarios = [ ("cash-budget", Budget_scenario.scenario) ] in
  let cfg = Server.default_config ~scenarios (Proto.Unix_sock path) in
  let cfg = { cfg with Server.domains = 2; queue_capacity = 16; health_slo } in
  let srv = Server.create cfg in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let ndocs = Array.length docs in
      let failures = Atomic.make 0 in
      let t0 = Obs.now_ms () in
      let threads =
        List.init overhead_clients (fun ci ->
            Thread.create
              (fun () ->
                Client.with_connection (Proto.Unix_sock path) (fun c ->
                    for r = 0 to overhead_per_client - 1 do
                      let d = docs.((ci + (r * overhead_clients)) mod ndocs) in
                      match
                        Client.repair c ~scenario:"cash-budget" ~document:d ()
                      with
                      | Ok _ -> ()
                      | Error _ -> Atomic.incr failures
                    done))
              ())
      in
      List.iter Thread.join threads;
      let wall_ms = Obs.elapsed_ms ~since:t0 in
      let total = overhead_clients * overhead_per_client in
      if Atomic.get failures > 0 then
        Printf.printf "slo  WARNING: %d failed requests in mode %s\n%!"
          (Atomic.get failures) tag;
      float_of_int total /. (wall_ms /. 1000.0))

let overhead () =
  let docs = [| noisy_doc 300; noisy_doc 301 |] in
  (* Untimed warm-up so the baseline does not absorb first-run costs. *)
  ignore (overhead_run ~tag:"warmup" ~docs ~health_slo:false);
  let pairs =
    List.init overhead_pairs (fun i ->
        let run health_slo =
          overhead_run ~docs ~health_slo
            ~tag:(Printf.sprintf "%d-%b" i health_slo)
        in
        (* Alternate which side goes first so drift in the box's load
           does not favour one side. *)
        let off, on =
          if i mod 2 = 0 then
            let off = run false in
            (off, run true)
          else
            let on = run true in
            (run false, on)
        in
        let pct = if on > 0.0 then ((off /. on) -. 1.0) *. 100.0 else 0.0 in
        Printf.printf
          "slo  pair %d: off %.1f req/s  on %.1f req/s  (%.1f%%)\n%!" i off on
          pct;
        (off, on, pct))
  in
  let median f = Report.median (List.map f pairs) in
  let pct = median (fun (_, _, p) -> p) in
  Printf.printf "slo  overhead median of %d pairs: %.1f%%\n%!" overhead_pairs
    pct;
  Obs.Json.Obj
    [ ("clients", Obs.Json.Int overhead_clients);
      ("requests", Obs.Json.Int (overhead_clients * overhead_per_client));
      ("pairs",
       Obs.Json.List
         (List.mapi
            (fun i (off, on, p) ->
              Obs.Json.Obj
                [ ("off_first", Obs.Json.Bool (i mod 2 = 0));
                  ("req_per_s_off", Obs.Json.Float off);
                  ("req_per_s_on", Obs.Json.Float on);
                  ("overhead_pct", Obs.Json.Float p) ])
            pairs));
      ("req_per_s_off", Obs.Json.Float (median (fun (o, _, _) -> o)));
      ("req_per_s_on", Obs.Json.Float (median (fun (_, o, _) -> o)));
      ("overhead_pct", Obs.Json.Float pct) ]

(* Injected latency fault: 60 healthy ticks at 10 ms / request, then
   every request takes 500 ms against a "99% under 100 ms" objective.
   The engine is ticked directly, so the measurement is deterministic
   and takes microseconds of wall clock, not minutes. *)
let burn_detection () =
  let fast_window = 60 in
  let h = Obs.Metrics.histogram "bench.slo.latency_ms" in
  let alert_tick = ref None in
  let tick_no = ref 0 in
  let engine =
    Slo.create ~fast_window ~slow_window:3600
      ~on_event:(fun ev ->
        if ev.Slo.ev_kind = Slo.Fast_burn && !alert_tick = None then
          alert_tick := Some !tick_no)
      [ Slo.latency ~name:"bench_latency" ~target:0.99 ~threshold_ms:100.0 h ]
  in
  (* Healthy minute: well under threshold. *)
  for _ = 1 to fast_window do
    incr tick_no;
    for _ = 1 to 5 do Obs.Metrics.observe h 10.0 done;
    Slo.tick engine
  done;
  let healthy_burn = Slo.burn_rate engine ~name:"bench_latency" `Fast in
  let fault_start = !tick_no in
  (* Fault: every request blows the threshold.  Tick until the fast
     alert fires (bounded at 2 windows so a broken engine terminates). *)
  while !alert_tick = None && !tick_no < fault_start + (2 * fast_window) do
    incr tick_no;
    for _ = 1 to 5 do Obs.Metrics.observe h 500.0 done;
    Slo.tick engine
  done;
  let ticks_to_alert =
    match !alert_tick with Some at -> at - fault_start | None -> -1
  in
  let burn_1m = Slo.burn_rate engine ~name:"bench_latency" `Fast in
  Printf.printf
    "slo  burn detection: alert after %d tick(s) (burn 1m %.1f, budget %.3f)\n%!"
    ticks_to_alert burn_1m
    (Slo.budget_remaining engine ~name:"bench_latency");
  if ticks_to_alert < 0 then
    failwith "slo bench: fast-burn alert never fired under a hard fault";
  Obs.Json.Obj
    [ ("fast_window_ticks", Obs.Json.Int fast_window);
      ("healthy_burn_rate_1m", Obs.Json.Float healthy_burn);
      ("ticks_to_alert", Obs.Json.Int ticks_to_alert);
      ("burn_rate_1m_at_alert", Obs.Json.Float burn_1m);
      ("within_one_window", Obs.Json.Bool (ticks_to_alert <= fast_window)) ]

let run () =
  let burn = burn_detection () in
  let ovh = overhead () in
  let json =
    Obs.Json.Obj [ ("overhead", ovh); ("burn_detection", burn) ]
  in
  let text = Obs.Json.to_string json in
  (match Obs.Json.of_string text with
   | Ok _ -> ()
   | Error msg -> failwith ("BENCH_slo.json is not valid JSON: " ^ msg));
  let oc = open_out out_file in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  Printf.printf "slo  wrote %s\n%!" out_file
