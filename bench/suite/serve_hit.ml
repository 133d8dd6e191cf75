(* serve-hit: [repair] requests for a few template documents, sent over
   the wire to a [dart-cli serve] subprocess in an open loop.  After the
   set-up's warm-up pass every answer comes from the solve cache, so the
   work is framing, JSON, the protocol layer, pool queueing,
   acquisition, grounding and the cache key: everything but the solver. *)

open Dart
open Dart_relational
module J = Dart_obs.Obs.Json
module Obs = Dart_obs.Obs
module Proto = Dart_server.Proto
module Client = Dart_server.Client
module Solver = Dart_repair.Solver

(* The reference step of the rate ladder: the e2e latency is measured
   here.  The ladder (traced runs) starts at [ladder_lo] and climbs by
   √2 to [ladder_hi] until a step misses [limit_ms] at p90. *)
let reference_rate ~smoke = if smoke then 20.0 else 400.0
let ladder_lo ~smoke = if smoke then 20.0 else 200.0
let ladder_hi ~smoke = if smoke then 40.0 else 3200.0
let ladder_step_s ~smoke = if smoke then 0.5 else 3.0
let limit_ms = 10.0

type template = {
  doc : Docs.doc;
  request : J.t;
  payload : string;           (* [request] as sent *)
  db : Database.t;            (* the acquired instance, to check answers *)
  updates : J.t option;       (* the in-process repair's "updates" *)
}

let templates ~smoke ~seed =
  List.init (if smoke then 2 else 16) (fun i ->
      let kind, years = if i mod 2 = 0 then (Docs.Cash_budget, 3) else (Docs.Balance_sheet, 2) in
      let years = if smoke then years - 1 else years in
      Docs.corrupted kind ~years ~errors:2 (Docs.prng_for ~workload:"serve-hit" ~seed i))

(* The answer the server must give: the in-process repair of the same
   document, itself checked valid. *)
let template (d : Docs.doc) =
  let sc = Docs.scenario d.Docs.kind in
  let db = (Pipeline.acquire sc d.Docs.html).Pipeline.db in
  let rows = Dart_constraints.Ground.of_constraints db sc.Scenario.constraints in
  let r = Pipeline.repair sc db in
  (match Inproc.check_repair sc d db r with
   | Ok true -> ()
   | Ok false -> failwith (d.Docs.label ^ ": in-process repair is not exact")
   | Error e -> failwith (d.Docs.label ^ ": " ^ e));
  let request =
    Proto.request_to_json ~op:"repair"
      (Client.doc_params ~scenario:(Docs.wire_name d.Docs.kind) ~document:d.Docs.html ())
  in
  { doc = d; request; payload = J.to_string request; db;
    updates = Proto.member "updates" (J.Obj (Proto.repair_fields ~rows db r)) }

(* A degraded answer cannot be compared with the exact one; it is right
   when applying it passes detection. *)
let valid_degraded t j =
  let sc = Docs.scenario t.doc.Docs.kind in
  match Option.bind (Proto.member "updates" j) Proto.as_list with
  | None -> false
  | Some us -> (
    try
      let rho =
        List.map
          (fun u ->
            let tid = Option.get (Proto.int_field u "tid") in
            let attr = Option.get (Proto.string_field u "attr") in
            let rs = Schema.relation (Database.schema t.db) (Tuple.relation (Database.find t.db tid)) in
            Dart_repair.Update.make ~tid ~attr
              ~new_value:(Value.parse (Schema.attr_domain rs attr)
                            (Option.get (Proto.string_field u "new"))))
          us
      in
      Pipeline.consistent sc (Dart_repair.Update.apply t.db rho)
    with _ -> false)

(** (right, exact) for one reply. *)
let judge t j =
  if not (Proto.response_ok j) then (false, false)
  else if Proto.string_field j "provenance" = Some "exact" then
    (Proto.member "updates" j = t.updates, true)
  else (valid_degraded t j, false)

type live = { srv : Proc.server; conns : Client.t array; sample_reply : string }

let close_live l =
  Array.iter Client.close l.conns;
  Proc.stop l.srv

(* Start a server and fill its solve cache: one pass over the templates
   computes every answer, a second checks that the cached answers are
   the same. *)
let start ~dir templates =
  let srv = Proc.spawn ~dir () in
  (match Proc.wait_ready srv with Ok () -> () | Error e -> failwith e);
  let connect () = Client.connect ~timeout_s:Wire.op_timeout_s srv.Proc.addr in
  let conns = [| connect (); connect () |] in
  let sample_reply = ref "" in
  for _pass = 1 to 2 do
    Array.iter
      (fun t ->
        match Client.roundtrip conns.(0) t.request with
        | Ok j when judge t j = (true, true) -> sample_reply := J.to_string j
        | Ok j -> failwith (t.doc.Docs.label ^ ": wrong warm-up answer: " ^ J.to_string j)
        | Error e -> failwith (t.doc.Docs.label ^ ": warm-up failed: " ^ e))
      templates
  done;
  { srv; conns; sample_reply = !sample_reply }

let open_loop l templates order ~rate ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  Wire.open_loop ~fds:(Array.map (fun c -> c.Client.fd) l.conns) ~rate ~n
    ~request:(fun i -> templates.(order i).payload)
    ~check:(fun i reply ->
      match J.of_string reply with
      | Ok j -> judge templates.(order i) j
      | Error _ -> (false, false))

let step_of ~rate (s : Wire.sample) =
  let lat = Stats.sorted (Wire.latencies s) in
  { Stats.rate; p90_ms = Stats.percentile lat 90.0; failures = Wire.failures s;
    all_exact = Array.for_all Fun.id (Array.map2 (fun ok ex -> (not ok) || ex) s.Wire.ok s.Wire.exact);
    lag_growing = Stats.lag_growing (Wire.lags s) }

let run (o : Report.opts) : Report.t =
  let smoke = o.Report.smoke in
  let dir = Proc.work_dir "serve-hit" in
  let templates = Array.of_list (List.map template (templates ~smoke ~seed:o.seed)) in
  let prng = Dart_rand.Prng.create o.seed in
  let order = Array.init 100_000 (fun _ -> Dart_rand.Prng.int prng (Array.length templates)) in
  let order i = order.(i mod Array.length order) in
  let l, setup_s =
    Report.repeated_setup 3 ~setup:(fun () -> start ~dir templates) ~teardown:close_live
  in
  Tracer.enabled := o.traced;
  let before = Wire.snapshot l.conns.(0) in
  let rate = reference_rate ~smoke in
  let s = open_loop l templates order ~rate ~seconds:o.seconds in
  let after = Wire.snapshot l.conns.(0) in
  let lat = Wire.latencies s in
  let n = Array.length s.Wire.ok in
  let answered = List.length lat in
  let last_done =
    Array.fold_left (fun acc t -> if Float.is_nan t then acc else Float.max acc t) 0.0
      s.Wire.done_ms
  in
  let window_s = (last_done -. s.Wire.due_ms.(0)) /. 1000.0 in
  let exact = Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 s.Wire.exact in
  let failed = Wire.failures s in
  let rss_mb = Proc.peak_rss_mb l.srv.Proc.pid in
  let end_to_end =
    Report.end_to_end ~setup_s ~ops_per_s:(float_of_int answered /. window_s) ~lat_ms:lat
      ~attempted:n ~failed ~exact ~answers:answered ~rss_mb
  in
  let per_layer =
    if not o.traced then []
    else begin
      Array.iteri
        (fun i d ->
          if not (Float.is_nan s.Wire.done_ms.(i)) then
            Tracer.interval ~name:"request" ~start_us:(d *. 1000.0)
              ~dur_us:((s.Wire.done_ms.(i) -. d) *. 1000.0))
        s.Wire.due_ms;
      let lags = Wire.lags s in
      let late = Array.fold_left (fun acc x -> if x > 1.0 then acc + 1 else acc) 0 lags in
      let client_p50_ms = Stats.percentile (Stats.sorted lat) 50.0 in
      (* The ladder, after the reference window so it cannot disturb it. *)
      let rec climb acc brown = function
        | [] -> (List.rev acc, brown)
        | r :: rest ->
          let step_s = ladder_step_s ~smoke in
          let st = step_of ~rate:r (open_loop l templates order ~rate:r ~seconds:step_s) in
          let level = Wire.field (Wire.snapshot l.conns.(0)) [ "server"; "brownout_level" ] in
          let brown = Float.max brown level in
          if Stats.step_passes ~limit_ms st then climb (st :: acc) brown rest
          else (List.rev (st :: acc), brown)
      in
      let steps, brownout =
        climb [] (Wire.field after [ "server"; "brownout_level" ])
          (Stats.ladder_rates ~lo:(ladder_lo ~smoke) ~hi:(ladder_hi ~smoke))
      in
      List.iter
        (fun st ->
          Printf.eprintf
            "serve-hit ladder: %.0f req/s p90 %.2f ms failures %d exact %b lag growing %b\n%!"
            st.Stats.rate st.Stats.p90_ms st.Stats.failures st.Stats.all_exact st.Stats.lag_growing)
        steps;
      Report.per_layer
        (Wire.server_layers before after ~ops:n ~client_p50_ms
         @ Wire.json_costs ~request:templates.(0).request ~reply:l.sample_reply
         @ Inproc.acquire_layers (Array.to_list (Array.map (fun t -> t.doc) templates))
         @ [ ("server.brownout_max", brownout);
             ("loadgen.lag_p90_ms", Stats.percentile (Stats.sorted (Array.to_list lags)) 90.0);
             ("loadgen.late_frac", float_of_int late /. float_of_int (max 1 (Array.length lags)));
             ("max_rate_rps", Stats.max_rate ~limit_ms steps) ])
    end
  in
  close_live l;
  let problems =
    (if failed > 0 then [ Printf.sprintf "%d of %d requests failed" failed n ] else [])
    @ Report.sample_problems o lat
  in
  { Report.workload = "serve-hit"; seed = o.seed; traced = o.traced; correct = problems = [];
    attempted = n; failed; end_to_end; per_layer; problems }
