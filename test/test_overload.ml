(* Overload-control tests: the resilience primitives (token bucket,
   load controller, fair queue) driven with fake clocks, then the
   server-level behaviours they power — admission shedding, brownout
   degradation, slow-client armor, telemetry scrape robustness, and WAL
   append failures surfacing as retryable errors. *)

open Dart_server
module Obs = Dart_obs.Obs
module Json = Obs.Json
module Overload = Dart_resilience.Overload
module Faultsim = Dart_faultsim.Faultsim
module Wal = Dart_durable.Wal

let t name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* An injectable clock the test advances by hand. *)
let fake_clock start =
  let now = ref start in
  ((fun () -> !now), fun dt -> now := !now +. dt)

(* ------------------------------------------------------------------ *)
(* Token bucket                                                        *)
(* ------------------------------------------------------------------ *)

let bucket_tests =
  [ t "a bucket serves its burst then refuses until refilled" (fun () ->
        let now, advance = fake_clock 0.0 in
        let b = Overload.Token_bucket.create ~now ~rate:10.0 ~burst:3.0 () in
        for i = 1 to 3 do
          Alcotest.(check bool)
            (Printf.sprintf "take %d of burst" i)
            true
            (Overload.Token_bucket.try_take b)
        done;
        Alcotest.(check bool) "burst exhausted" false
          (Overload.Token_bucket.try_take b);
        (* 10 tokens/s: 0.1s buys exactly one more admission. *)
        advance 0.1;
        Alcotest.(check bool) "refill admits one" true
          (Overload.Token_bucket.try_take b);
        Alcotest.(check bool) "but only one" false
          (Overload.Token_bucket.try_take b));
    t "wait_hint_ms predicts when the next token lands" (fun () ->
        let now, advance = fake_clock 5.0 in
        let b = Overload.Token_bucket.create ~now ~rate:2.0 ~burst:1.0 () in
        Alcotest.(check bool) "drain" true (Overload.Token_bucket.try_take b);
        let hint = Overload.Token_bucket.wait_hint_ms b in
        (* 2 tokens/s -> one token in 500ms. *)
        Alcotest.(check bool)
          (Printf.sprintf "hint %.0fms near 500ms" hint)
          true
          (hint > 400.0 && hint <= 500.0);
        advance (hint /. 1000.0);
        Alcotest.(check bool) "token available after the hinted wait" true
          (Overload.Token_bucket.try_take b));
    t "refill never exceeds burst" (fun () ->
        let now, advance = fake_clock 0.0 in
        let b = Overload.Token_bucket.create ~now ~rate:100.0 ~burst:2.0 () in
        advance 60.0 (* a minute idle must not bank 6000 tokens *);
        Alcotest.(check bool) "1" true (Overload.Token_bucket.try_take b);
        Alcotest.(check bool) "2" true (Overload.Token_bucket.try_take b);
        Alcotest.(check bool) "3 refused" false (Overload.Token_bucket.try_take b))
  ]

(* ------------------------------------------------------------------ *)
(* Load controller + brownout ladder                                   *)
(* ------------------------------------------------------------------ *)

let controller_tests =
  let open Overload.Controller in
  let cfg =
    { target_queue_wait_ms = 10.0; alpha = 0.5; max_level = 3;
      dwell_ms = 100.0 }
  in
  [ t "load climbs into brownout and drains back out" (fun () ->
        let now, advance = fake_clock 0.0 in
        let c = create ~now cfg in
        Alcotest.(check int) "starts at level 0" 0 (level c);
        (* Hammer it: queue wait 20x target.  One level step per dwell
           window, so advance past the dwell each time. *)
        for _ = 1 to 10 do
          observe c ~queue_wait_ms:200.0;
          advance 0.15
        done;
        Alcotest.(check bool)
          (Printf.sprintf "load %.1f is overloaded" (load c))
          true (load c > 3.0);
        Alcotest.(check int) "deepest brownout" 3 (level c);
        (* Drain: zero wait decays the EWMA; hysteresis steps back down. *)
        for _ = 1 to 40 do
          observe c ~queue_wait_ms:0.0;
          advance 0.15
        done;
        Alcotest.(check int) "recovered to level 0" 0 (level c));
    t "dwell time stops level flapping" (fun () ->
        let now, advance = fake_clock 0.0 in
        let c = create ~now cfg in
        (* Both observations arrive inside one dwell window: at most one
           level change can happen. *)
        observe c ~queue_wait_ms:500.0;
        observe c ~queue_wait_ms:500.0;
        Alcotest.(check bool) "at most one step per dwell" true (level c <= 1);
        advance 0.15;
        observe c ~queue_wait_ms:500.0;
        Alcotest.(check bool) "next dwell allows the next step" true
          (level c >= 1));
    t "brownout_nodes maps the ladder onto solver budgets" (fun () ->
        let n = Overload.brownout_nodes ~max_nodes:20_000 in
        Alcotest.(check int) "level 0: full budget" 20_000 (n 0);
        Alcotest.(check int) "level 1: /16" 1_250 (n 1);
        Alcotest.(check int) "level 2: incumbent-only cap" 200 (n 2);
        Alcotest.(check int) "level 3: greedy tier" 0 (n 3);
        Alcotest.(check int) "beyond max: still greedy" 0 (n 9);
        Alcotest.(check int) "tiny budgets stay >= 1 until greedy"
          1
          (Overload.brownout_nodes ~max_nodes:5 1))
  ]

(* ------------------------------------------------------------------ *)
(* Fair queue                                                          *)
(* ------------------------------------------------------------------ *)

(* Starvation freedom: whatever the push pattern, once pops begin, one
   round of [clients] pops serves every client with pending items
   exactly once — no client can be starved by a hot neighbour. *)
let fair_queue_starvation =
  let open QCheck in
  Test.make ~count:300 ~long_factor:10
    ~name:"fair queue: every nonempty client is served within c pops"
    (list (pair (int_bound 7) small_nat))
    (fun pushes ->
      let q = Overload.Fair_queue.create () in
      (* Tag every item with its client so a pop tells us who was served. *)
      List.iteri
        (fun i (client, _) ->
          let k = Printf.sprintf "c%d" client in
          Overload.Fair_queue.push q ~client:k (k, i))
        pushes;
      let ok = ref true in
      while not (Overload.Fair_queue.is_empty q) do
        let c = Overload.Fair_queue.clients q in
        (* One full round: c pops must serve c distinct clients. *)
        let served = Hashtbl.create 8 in
        for _ = 1 to c do
          match Overload.Fair_queue.pop q with
          | None -> ok := false
          | Some (k, _) ->
            if Hashtbl.mem served k then ok := false
            else Hashtbl.add served k ()
        done;
        if Hashtbl.length served <> c then ok := false
      done;
      !ok)

let fair_queue_fifo =
  let open QCheck in
  Test.make ~count:300 ~long_factor:10
    ~name:"fair queue: per-client order is FIFO"
    (list (pair (int_bound 3) small_nat))
    (fun pushes ->
      let q = Overload.Fair_queue.create () in
      List.iteri
        (fun i (client, _) ->
          let k = Printf.sprintf "c%d" client in
          Overload.Fair_queue.push q ~client:k (k, i))
        pushes;
      let last_seq = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun (k, i) ->
          (match Hashtbl.find_opt last_seq k with
           | Some prev when prev > i -> ok := false
           | _ -> ());
          Hashtbl.replace last_seq k i)
        (Overload.Fair_queue.drain q);
      !ok && Overload.Fair_queue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Faultsim knobs                                                      *)
(* ------------------------------------------------------------------ *)

let faultsim_tests =
  [ t "slowloris/flood spec keys parse" (fun () ->
        match
          Faultsim.spec_of_string
            "seed=7,slowloris=0.5,slowloris-ms=120,flood=0.25,flood-burst=4"
        with
        | Error e -> Alcotest.fail e
        | Ok cfg ->
          Alcotest.(check (float 1e-9)) "slowloris" 0.5 cfg.Faultsim.slowloris;
          Alcotest.(check (float 1e-9)) "slowloris-ms" 120.0
            cfg.Faultsim.slowloris_ms;
          Alcotest.(check (float 1e-9)) "flood" 0.25 cfg.Faultsim.flood;
          Alcotest.(check int) "flood-burst" 4 cfg.Faultsim.flood_burst);
    t "flood draws are deterministic per seed" (fun () ->
        let mk () =
          Faultsim.create
            { Faultsim.disabled with Faultsim.seed = 3; flood = 0.5;
              flood_burst = 6 }
        in
        let draw f = List.init 50 (fun _ -> Faultsim.on_admission f) in
        Alcotest.(check (list int)) "identical schedules"
          (draw (mk ())) (draw (mk ()));
        Alcotest.(check bool) "bursts are 0 or flood_burst" true
          (List.for_all (fun n -> n = 0 || n = 6) (draw (mk ())));
        Alcotest.(check int) "disabled floods nothing" 0
          (Faultsim.on_admission Faultsim.none))
  ]

(* ------------------------------------------------------------------ *)
(* Server integration                                                  *)
(* ------------------------------------------------------------------ *)

let m_shed = Obs.Metrics.counter "server.shed"
let m_brownout_changes = Obs.Metrics.counter "server.brownout_changes"
let m_slow_closes = Obs.Metrics.counter "server.slow_client_closes"
let m_coalesced = Obs.Metrics.counter "server.coalesced"
let m_wal_errors = Obs.Metrics.counter "durable.wal_errors"

(* Like Test_server.with_server but hands the test the server value too,
   so it can reach the controller for deterministic forcing. *)
let with_srv ?(cfg_f = fun c -> c) f =
  let path = Test_server.fresh_sock () in
  let addr = Proto.Unix_sock path in
  let cfg =
    cfg_f (Server.default_config ~scenarios:Test_server.all_scenarios addr)
  in
  let srv = Server.create cfg in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f srv addr)

(* Drive the server's controller to [target] by feeding it queue waits
   far past (or far under) its target, spaced beyond the dwell time. *)
let pump_level srv target =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let wait_ms = if target > 0 then 1e6 else 0.0 in
  while
    Overload.Controller.level srv.Server.ctrl <> target
    && Unix.gettimeofday () < deadline
  do
    Overload.Controller.observe srv.Server.ctrl ~queue_wait_ms:wait_ms;
    Thread.delay 0.03
  done;
  Alcotest.(check int) "controller level" target
    (Overload.Controller.level srv.Server.ctrl)

(* A one-token bucket that takes a minute to refill: the second request
   of a client at brownout level >= 1 is over its rate. *)
let one_token c = { c with Server.client_rate = 1.0 /. 60.0; client_burst = 1.0 }

let repair_req id =
  Proto.request_to_json ~id:(Json.Int id) ~client:"alice" ~op:"repair"
    [ ("scenario", Json.Str "cash-budget");
      ("document", Json.Str (Test_server.doc ~years:1 11)) ]

let roundtrip_raw addr req =
  let fd = Test_server.raw_connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Frame.write fd (Json.to_string req);
      match Frame.read ~timeout:10.0 fd with
      | Error e -> Alcotest.fail (Frame.read_error_to_string e)
      | Ok payload -> (
        match Json.of_string payload with
        | Error e -> Alcotest.fail e
        | Ok j -> j))

let shed_tests =
  [ t "an over-rate client at brownout sheds with a retryable overloaded error"
      (fun () ->
        with_srv ~cfg_f:one_token @@ fun srv addr ->
        pump_level srv 1;
        let before = Obs.Metrics.value m_shed in
        Alcotest.(check bool) "the bucket's one token admits" true
          (Proto.response_ok (roundtrip_raw addr (repair_req 1)));
        let body = roundtrip_raw addr (repair_req 2) in
        Alcotest.(check string) "code" "overloaded" (Test_server.err_code body);
        (* The error object must carry a machine-readable backoff. *)
        let retry_after =
          match Proto.member "error" body with
          | None -> Alcotest.fail "no error object"
          | Some e -> (
            match Proto.member "retry_after_ms" e with
            | Some (Json.Float ms) -> ms
            | Some (Json.Int ms) -> float_of_int ms
            | _ -> Alcotest.fail "no retry_after_ms in error")
        in
        Alcotest.(check bool) "retry_after_ms positive" true (retry_after > 0.0);
        Alcotest.(check int) "server.shed incremented" (before + 1)
          (Obs.Metrics.value m_shed);
        (* ping skips the pool and must still answer: the server is
           degraded, not down. *)
        Client.with_connection addr @@ fun c ->
        (match Client.ping c with
         | Ok () -> ()
         | Error e -> Alcotest.fail ("ping during shed: " ^ e)));
    t "the overloaded error is transient for the retrying client" (fun () ->
        Alcotest.(check bool) "overloaded retries" true
          (Client.transient_error "overloaded: client rate limit (brownout)");
        Alcotest.(check bool) "deadline does not" false
          (Client.transient_error "deadline_exceeded: too slow"));
    t "--no-overload admits everything even at brownout level >= 1 with an \
       empty bucket" (fun () ->
        with_srv ~cfg_f:(fun c -> { (one_token c) with Server.overload = false })
        @@ fun srv addr ->
        pump_level srv 1;
        for i = 1 to 3 do
          let body = roundtrip_raw addr (repair_req i) in
          Alcotest.(check bool)
            (Printf.sprintf "request %d admitted" i)
            true (Proto.response_ok body)
        done);
    t "a deadline above the measured queue wait is admitted after a cold \
       solve" (fun () ->
        (* One worker.  A cold repair takes far longer than the queue wait
           that follows it; a request queued behind one short job must be
           judged by its deadline at dequeue, not shed at admission by a
           backlog estimate scaled by that cold solve. *)
        with_srv ~cfg_f:(fun c -> { c with Server.domains = 1 })
        @@ fun srv addr ->
        let t0 = Unix.gettimeofday () in
        Alcotest.(check bool) "cold repair" true
          (Proto.response_ok
             (roundtrip_raw addr
                (Proto.request_to_json ~id:(Json.Int 1) ~op:"repair"
                   [ ("scenario", Json.Str "cash-budget");
                     ("document", Json.Str (Test_server.doc ~years:8 5)) ])));
        let cold_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        (* The worker holds a 20 ms job; one cheap job queues behind it. *)
        let submit f = Option.get (Pool.try_submit srv.Server.pool f) in
        let busy = submit (fun () -> Thread.delay 0.02; Proto.ok []) in
        let cheap = submit (fun () -> Proto.ok []) in
        let deadline_ms = Float.max 150.0 (cold_ms /. 3.0) in
        let body =
          roundtrip_raw addr
            (Proto.request_to_json ~id:(Json.Int 2) ~deadline_ms ~op:"repair"
               [ ("scenario", Json.Str "cash-budget");
                 ("document", Json.Str (Test_server.doc ~years:1 11)) ])
        in
        ignore (Pool.await busy);
        ignore (Pool.await cheap);
        Alcotest.(check bool)
          (Printf.sprintf "answered within %.0f ms (cold repair %.0f ms): %s"
             deadline_ms cold_ms (Json.to_string body))
          true (Proto.response_ok body));
    t "the synthetic conn- namespace is reserved on the wire" (fun () ->
        (* A client declaring another anonymous connection's synthetic id
           ("conn-<n>", server.ml) must not be able to share its
           fair-queue slot and brownout bucket: the parse drops the field
           and the request falls back to its own connection identity. *)
        let parse client =
          match
            Proto.request_of_json
              (Proto.request_to_json ~client ~op:"ping" [])
          with
          | Ok req -> req.Proto.client
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check (option string)) "conn-3 rejected" None
          (parse "conn-3");
        Alcotest.(check (option string)) "conn- prefix rejected" None
          (parse "conn-anything");
        Alcotest.(check (option string)) "ordinary ids still pass"
          (Some "alice") (parse "alice");
        Alcotest.(check (option string)) "conn without dash still passes"
          (Some "connecticut") (parse "connecticut"))
  ]

let brownout_tests =
  [ t "deep brownout answers with the greedy tier, then recovers" (fun () ->
        with_srv @@ fun srv addr ->
        pump_level srv 3;
        Alcotest.(check int) "greedy node budget at level 3" 0
          (Server.effective_max_nodes srv);
        (* One noisy doc (seed 1 has violations and a greedy-reachable
           repair): a full solve answers exact; the greedy tier must
           still answer, flagged by provenance. *)
        let noisy = Test_server.doc 1 in
        let body =
          roundtrip_raw addr
            (Proto.request_to_json ~id:(Json.Int 1) ~op:"repair"
               [ ("scenario", Json.Str "cash-budget");
                 ("document", Json.Str noisy) ])
        in
        Alcotest.(check bool) "ok under brownout" true (Proto.response_ok body);
        Alcotest.(check string) "repaired under brownout" "repaired"
          (Option.value ~default:"?" (Proto.string_field body "status"));
        Alcotest.(check string) "greedy provenance" "greedy_fallback"
          (Option.value ~default:"?" (Proto.string_field body "provenance"));
        (* Load drains -> budgets restore -> exact answers come back.
           (Each dequeued job also observes its wait, but drive the
           controller directly so the test does not depend on traffic.) *)
        pump_level srv 0;
        Alcotest.(check bool) "full budget restored" true
          (Server.effective_max_nodes srv > 0);
        let body =
          roundtrip_raw addr
            (Proto.request_to_json ~id:(Json.Int 2) ~op:"repair"
               [ ("scenario", Json.Str "cash-budget");
                 ("document", Json.Str noisy) ])
        in
        Alcotest.(check string) "exact again" "exact"
          (Option.value ~default:"?" (Proto.string_field body "provenance")));
    t "--no-overload keeps the full budget at any level" (fun () ->
        with_srv ~cfg_f:(fun c -> { c with Server.overload = false })
        @@ fun srv _addr ->
        pump_level srv 3;
        Alcotest.(check int) "budget untouched" srv.Server.cfg.Server.max_nodes
          (Server.effective_max_nodes srv));
    t "two connections each holding a repair in flight stay at level 0"
      (fun () ->
        (* One worker domain, a warm solve cache and two connections that
           each keep one repair in flight: every pool job stalls 5 ms,
           so each connection's next request arrives while the other's is
           still inside [process].  Queue wait stays far under the 50 ms
           target, so nothing may brown out or shed — holding as many
           requests as there are connections is not overload. *)
        with_srv ~cfg_f:(fun c ->
            { c with
              Server.domains = 1; solve_cache_mb = 8;
              faults =
                Faultsim.create
                  { Faultsim.disabled with
                    Faultsim.worker_stall = 1.0; worker_stall_ms = 5.0 } })
        @@ fun srv addr ->
        Fun.protect ~finally:(fun () ->
            Dart_repair.Solver.Cache.set_budget_bytes 0)
        @@ fun () ->
        (* Distinct documents, so the two streams never coalesce. *)
        let docs = [| Test_server.doc 1; Test_server.doc 2 |] in
        let repair c html =
          match Client.repair c ~scenario:"cash-budget" ~document:html () with
          | Ok body -> Proto.string_field body "provenance"
          | Error e -> Some ("error: " ^ e)
        in
        Client.with_connection addr (fun c ->
            Array.iter (fun html -> ignore (repair c html)) docs);
        let shed0 = Obs.Metrics.value m_shed in
        let changes0 = Obs.Metrics.value m_brownout_changes in
        let answers = Array.make 2 [] in
        let stream i () =
          Client.with_connection addr (fun c ->
              for _ = 1 to 80 do
                answers.(i) <- repair c docs.(i) :: answers.(i)
              done)
        in
        let other = Thread.create (stream 1) () in
        stream 0 ();
        Thread.join other;
        Array.iteri
          (fun i a ->
            Alcotest.(check (list (option string)))
              (Printf.sprintf "connection %d: every answer exact" i)
              (List.init 80 (fun _ -> Some "exact"))
              a)
          answers;
        Alcotest.(check int) "brownout level" 0
          (Overload.Controller.level srv.Server.ctrl);
        Alcotest.(check int) "no level change" changes0
          (Obs.Metrics.value m_brownout_changes);
        Alcotest.(check int) "nothing shed" shed0 (Obs.Metrics.value m_shed))
  ]

let coalesce_deadline_tests =
  [ t "a coalesced follower honours its own shorter deadline" (fun () ->
        (* Stall every pool job so the follower reliably arrives while
           the leader is still solving, then give the follower a deadline
           shorter than the stall: it must time out on its own even
           though the leader (no deadline) completes fine. *)
        let html = Test_server.doc 777 in
        let attempt () =
          with_srv ~cfg_f:(fun c ->
              { c with
                Server.domains = 2;
                faults =
                  Faultsim.create
                    { Faultsim.disabled with
                      Faultsim.worker_stall = 1.0; worker_stall_ms = 500.0 } })
          @@ fun _srv addr ->
          let before = Obs.Metrics.value m_coalesced in
          let leader = ref (Error "never ran") in
          let follower = ref (Error "never ran") in
          let lt =
            Thread.create
              (fun () ->
                leader :=
                  Client.with_connection addr (fun c ->
                      Client.repair c ~scenario:"cash-budget" ~document:html ()))
              ()
          in
          Thread.delay 0.15 (* let the leader claim the flight *);
          let ft =
            Thread.create
              (fun () ->
                follower :=
                  Client.with_connection addr (fun c ->
                      Client.repair ~deadline_ms:100.0 c ~scenario:"cash-budget"
                        ~document:html ()))
              ()
          in
          Thread.join lt;
          Thread.join ft;
          if Obs.Metrics.value m_coalesced = before then `No_overlap
          else
            match (!leader, !follower) with
            | Ok _, Error msg
              when contains msg "awaiting coalesced solve" ->
              `Ok
            | Ok _, Error msg -> `Bad ("follower: " ^ msg)
            | Error msg, _ -> `Bad ("leader: " ^ msg)
            | _, Ok _ -> `Bad "follower beat a 500ms stall with a 100ms deadline"
        in
        let rec go n =
          match attempt () with
          | `Ok -> ()
          | `Bad msg -> Alcotest.fail msg
          | `No_overlap when n > 1 -> go (n - 1)
          | `No_overlap -> Alcotest.fail "no coalescing overlap in 3 attempts"
        in
        go 3)
  ]

let slow_client_tests =
  [ t "a mid-frame stall is disconnected by the read armor" (fun () ->
        with_srv ~cfg_f:(fun c -> { c with Server.frame_read_timeout_s = 0.3 })
        @@ fun _srv addr ->
        let before = Obs.Metrics.value m_slow_closes in
        let fd = Test_server.raw_connect addr in
        (* Half a length header, then silence: a slowloris hold. *)
        Test_server.write_raw fd "\x00\x00";
        let buf = Bytes.create 1 in
        let closed =
          (* The server must cut us off around frame_read_timeout_s; EOF
             (or a reset) within 5s proves the connection thread freed
             itself rather than waiting out the 60s idle timeout. *)
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ -> false
          | _ -> (
            match Unix.read fd buf 0 1 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Alcotest.(check bool) "connection closed" true closed;
        Alcotest.(check bool) "slow_client_closes incremented" true
          (Obs.Metrics.value m_slow_closes > before);
        (* The armor must not have taken the server with it. *)
        Client.with_connection addr @@ fun c ->
        match Client.ping c with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("ping after slowloris: " ^ e));
    t "an injected Trickle write still delivers the whole frame" (fun () ->
        (* The chaos fault models a slow *server* write; the payload must
           survive intact (pause, not loss) so clients see byte-identical
           responses under slowloris chaos. *)
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let faults =
          Faultsim.create
            { Faultsim.disabled with
              Faultsim.seed = 5; slowloris = 1.0; slowloris_ms = 30.0 }
        in
        let payload = String.make 4096 'z' in
        let writer = Thread.create (fun () -> Frame.write ~faults a payload) () in
        let got =
          match Frame.read ~timeout:5.0 b with
          | Ok p -> p
          | Error e -> Alcotest.fail (Frame.read_error_to_string e)
        in
        Thread.join writer;
        Unix.close a; Unix.close b;
        Alcotest.(check int) "length intact" (String.length payload)
          (String.length got);
        Alcotest.(check bool) "bytes intact" true (String.equal payload got))
  ]

let telemetry_tests =
  [ t "a half-open telemetry connection cannot block real scrapes" (fun () ->
        with_srv ~cfg_f:(fun c -> { c with Server.telemetry_port = Some 0 })
        @@ fun srv _addr ->
        match Server.telemetry_addr srv with
        | None -> Alcotest.fail "telemetry listener did not come up"
        | Some (host, port) ->
          let connect () =
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
            fd
          in
          (* The attacker: connects and sends nothing, twice, so at least
             one is being served (read-blocked) when the scrape lands. *)
          let hostile1 = connect () in
          let hostile2 = connect () in
          let t0 = Unix.gettimeofday () in
          let scrape () =
            let fd = connect () in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let req = "GET /metrics HTTP/1.0\r\n\r\n" in
                ignore (Unix.write_substring fd req 0 (String.length req));
                let buf = Buffer.create 4096 in
                let chunk = Bytes.create 4096 in
                let rec drain () =
                  match Unix.select [ fd ] [] [] 10.0 with
                  | [], _, _ -> ()
                  | _ -> (
                    match Unix.read fd chunk 0 4096 with
                    | 0 -> ()
                    | n ->
                      Buffer.add_subbytes buf chunk 0 n;
                      drain ()
                    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
                in
                drain ();
                Buffer.contents buf)
          in
          let body = scrape () in
          let elapsed = Unix.gettimeofday () -. t0 in
          (try Unix.close hostile1 with Unix.Unix_error _ -> ());
          (try Unix.close hostile2 with Unix.Unix_error _ -> ());
          Alcotest.(check bool) "scrape got the exposition" true
            (contains body "server_requests");
          (* Two hostile holds in front cost at most ~2 read deadlines
             (1s each); far less than the old unbounded block. *)
          Alcotest.(check bool)
            (Printf.sprintf "served in %.1fs despite half-open peers" elapsed)
            true (elapsed < 8.0))
  ]

let wal_tests =
  [ t "an ENOSPC append fails typed, counts, and recovers" (fun () ->
        let dir =
          Printf.sprintf "/tmp/dart-walfail-%d-%d" (Unix.getpid ())
            (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000)
        in
        let wal = Wal.create ~shards:2 dir in
        let key = "session-x" in
        let shard = Wal.shard_of wal key in
        (* Route the key's shard to /dev/full: every write hits ENOSPC,
           exactly like a full disk, without filling one. *)
        let seg = Filename.concat dir (Printf.sprintf "wal-%02d.log" shard) in
        (try Sys.remove seg with Sys_error _ -> ());
        Unix.symlink "/dev/full" seg;
        let before = Obs.Metrics.value m_wal_errors in
        (match Wal.append wal ~key (Json.Str "event-1") with
         | () -> Alcotest.fail "append to a full disk must not succeed"
         | exception Wal.Append_failed msg ->
           Alcotest.(check bool)
             (Printf.sprintf "message names the shard: %s" msg)
             true (contains msg "wal shard"));
        Alcotest.(check bool) "durable.wal_errors incremented" true
          (Obs.Metrics.value m_wal_errors > before);
        (* Space comes back: the reset channel reopens and appends fine. *)
        Unix.unlink seg;
        Wal.append wal ~key (Json.Str "event-2");
        let replayed = Wal.replay_shard ~dir ~shard in
        Alcotest.(check int) "the good append is durable" 1
          (List.length replayed.Wal.events);
        Wal.close wal;
        (try Sys.remove seg with Sys_error _ -> ());
        (try Sys.remove (Filename.concat dir "wal.meta") with Sys_error _ -> ());
        (try
           Sys.remove
             (Filename.concat dir
                (Printf.sprintf "wal-%02d.log" (1 - shard)))
         with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ());
    t "a full disk turns session/open into a retryable busy" (fun () ->
        let data_dir =
          Printf.sprintf "/tmp/dart-walfail-srv-%d-%d" (Unix.getpid ())
            (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000)
        in
        with_srv ~cfg_f:(fun c ->
            { c with Server.data_dir = Some data_dir; wal_shards = 2 })
        @@ fun _srv addr ->
        (* Point every shard at /dev/full so whichever shard the session
           id hashes to fails. *)
        for shard = 0 to 1 do
          let seg =
            Filename.concat data_dir (Printf.sprintf "wal-%02d.log" shard)
          in
          (try Sys.remove seg with Sys_error _ -> ());
          Unix.symlink "/dev/full" seg
        done;
        Client.with_connection addr @@ fun c ->
        (match
           Client.session_open c ~scenario:"cash-budget"
             ~document:(Test_server.doc ~years:1 11) ()
         with
         | Ok _ -> Alcotest.fail "open must fail when its log cannot persist"
         | Error msg ->
           Alcotest.(check bool)
             (Printf.sprintf "busy + explanation: %s" msg)
             true
             (Client.transient_error msg
             && contains msg "session log unavailable"));
        (* No crash, no wedged worker: the server still serves compute. *)
        (match Client.repair c ~scenario:"cash-budget"
                 ~document:(Test_server.doc ~years:1 11) () with
         | Ok _ -> ()
         | Error e -> Alcotest.fail ("stateless repair after wal failure: " ^ e));
        for shard = 0 to 1 do
          try
            Sys.remove
              (Filename.concat data_dir (Printf.sprintf "wal-%02d.log" shard))
          with Sys_error _ -> ()
        done)
  ]

let suite =
  bucket_tests @ controller_tests
  @ [ Qcheck_util.to_alcotest fair_queue_starvation;
      Qcheck_util.to_alcotest fair_queue_fifo ]
  @ faultsim_tests @ shed_tests @ brownout_tests @ coalesce_deadline_tests
  @ slow_client_tests @ telemetry_tests @ wal_tests
