(* dart_server tests: framing, worker pool, protocol robustness, the
   session store, and wire/in-process parity (repairs must be
   byte-identical to Pipeline.repair; sessions must reproduce
   Validation.run). *)

open Dart
open Dart_relational
open Dart_constraints
open Dart_repair
open Dart_datagen
open Dart_rand
open Dart_server
module Obs = Dart_obs.Obs
module Json = Obs.Json

let t name f = Alcotest.test_case name `Quick f

let scenario = Budget_scenario.scenario

let all_scenarios =
  [ ("cash-budget", Budget_scenario.scenario);
    ("balance-sheet", Balance_scenario.scenario);
    ("catalog", Catalog_scenario.scenario);
    ("quarterly", Quarterly_scenario.scenario) ]

(* Deterministic cash-budget documents; numeric-only noise so repairs stay
   in MILP territory. *)
let doc ?(years = 3) ?(noise = 0.1) seed =
  let prng = Prng.create seed in
  let truth = Cash_budget.generate ~years prng in
  if noise = 0.0 then fst (Doc_render.cash_budget_html truth)
  else
    let channel =
      { Dart_ocr.Noise.numeric_rate = noise; string_rate = 0.0; char_rate = 0.1 }
    in
    fst (Doc_render.cash_budget_html ~channel ~prng truth)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Printf.sprintf "/tmp/dart-test-%d-%d.sock" (Unix.getpid ()) !sock_counter

let with_server ?(domains = 3) ?(queue = 16) f =
  let path = fresh_sock () in
  let addr = Proto.Unix_sock path in
  let cfg = Server.default_config ~scenarios:all_scenarios addr in
  let cfg = { cfg with Server.domains; queue_capacity = queue } in
  let srv = Server.create cfg in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f addr)

let raw_connect = function
  | Proto.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Proto.Tcp _ -> Alcotest.fail "tests use unix sockets"

let write_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let err_code body =
  match Proto.member "error" body with
  | Some e -> Option.value ~default:"?" (Proto.string_field e "code")
  | None -> "?"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame_tests =
  [ t "frames round-trip over a socketpair" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let payloads = [ ""; "x"; String.make 70_000 'q'; "{\"op\":\"ping\"}" ] in
        List.iter (fun p -> Frame.write a p) payloads;
        List.iter
          (fun p ->
            match Frame.read ~timeout:2.0 b with
            | Ok got -> Alcotest.(check string) "payload" p got
            | Error e -> Alcotest.fail (Frame.read_error_to_string e))
          payloads;
        Unix.close a;
        Unix.close b);
    t "oversized declared length is rejected without reading it" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 0x7FFF_FFFFl;
        ignore (Unix.write a hdr 0 4);
        (match Frame.read ~timeout:2.0 ~max_len:1024 b with
         | Error (Frame.Oversized n) -> Alcotest.(check int) "declared" 0x7FFF_FFFF n
         | _ -> Alcotest.fail "expected Oversized");
        Unix.close a;
        Unix.close b);
    t "peer closing mid-frame yields Eof" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 100l;
        ignore (Unix.write a hdr 0 4);
        write_raw a "only ten b";
        Unix.close a;
        (match Frame.read ~timeout:2.0 b with
         | Error Frame.Eof -> ()
         | Ok _ -> Alcotest.fail "expected Eof, got a frame"
         | Error e -> Alcotest.fail (Frame.read_error_to_string e));
        Unix.close b);
    t "a stalled frame times out rather than hanging" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 100l;
        ignore (Unix.write a hdr 0 4);
        (* payload never arrives *)
        (match Frame.read ~timeout:0.2 b with
         | Error Frame.Timeout -> ()
         | Ok _ -> Alcotest.fail "expected Timeout, got a frame"
         | Error e -> Alcotest.fail (Frame.read_error_to_string e));
        Unix.close a;
        Unix.close b)
  ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [ t "map preserves order and length" (fun () ->
        let pool = Pool.create ~domains:3 ~queue_capacity:8 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let xs = List.init 50 Fun.id in
            let ys = Pool.map pool (fun x -> x * x) xs in
            Alcotest.(check (list int)) "squares" (List.map (fun x -> x * x) xs) ys));
    t "nested maps do not deadlock on a tiny pool" (fun () ->
        let pool = Pool.create ~domains:1 ~queue_capacity:2 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let ys =
              Pool.map pool
                (fun x -> List.fold_left ( + ) 0 (Pool.map pool (fun y -> x * y) [ 1; 2; 3 ]))
                [ 1; 2; 3; 4 ]
            in
            Alcotest.(check (list int)) "nested" [ 6; 12; 18; 24 ] ys));
    t "exceptions propagate out of map" (fun () ->
        let pool = Pool.create ~domains:2 ~queue_capacity:4 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            match Pool.map pool (fun x -> if x = 2 then failwith "boom" else x) [ 1; 2; 3 ] with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure msg -> Alcotest.(check string) "msg" "boom" msg));
    t "a full queue refuses submissions (backpressure)" (fun () ->
        let pool = Pool.create ~domains:1 ~queue_capacity:1 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let release = Atomic.make false in
            let blocker () = while not (Atomic.get release) do Thread.delay 0.001 done in
            let f1 =
              match Pool.try_submit pool blocker with
              | Some f -> f
              | None -> Alcotest.fail "first submit refused"
            in
            (* Wait until the lone worker has claimed the blocker, then one
               job fits the queue and the next is refused. *)
            let rec settle n =
              if Pool.depth pool > 0 && n < 2000 then (Thread.delay 0.001; settle (n + 1))
            in
            settle 0;
            let f2 =
              match Pool.try_submit pool blocker with
              | Some f -> f
              | None -> Alcotest.fail "second submit refused"
            in
            (match Pool.try_submit pool (fun () -> ()) with
             | None -> ()
             | Some _ -> Alcotest.fail "third submit should hit backpressure");
            Atomic.set release true;
            Pool.await f1;
            Pool.await f2));
    t "try_cancel stops queued jobs only" (fun () ->
        let pool = Pool.create ~domains:1 ~queue_capacity:4 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let release = Atomic.make false in
            let blocker () = while not (Atomic.get release) do Thread.delay 0.001 done in
            let f1 = Option.get (Pool.try_submit pool blocker) in
            let rec settle n =
              if Pool.depth pool > 0 && n < 2000 then (Thread.delay 0.001; settle (n + 1))
            in
            settle 0;
            let f2 = Option.get (Pool.try_submit pool (fun () -> 42)) in
            Alcotest.(check bool) "queued job cancels" true (Pool.try_cancel f2);
            Alcotest.(check bool) "running job does not" false (Pool.try_cancel f1);
            Atomic.set release true;
            Pool.await f1;
            (match Pool.poll f2 with
             | `Cancelled -> ()
             | _ -> Alcotest.fail "f2 should be cancelled")))
  ]

(* ------------------------------------------------------------------ *)
(* Protocol robustness                                                 *)
(* ------------------------------------------------------------------ *)

let robustness_tests =
  [ t "invalid JSON gets a parse_error frame and the connection survives" (fun () ->
        with_server @@ fun addr ->
        let fd = raw_connect addr in
        Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Frame.write fd "{not json at all";
            (match Frame.read ~timeout:5.0 fd with
             | Ok payload ->
               let body = Result.get_ok (Json.of_string payload) in
               Alcotest.(check bool) "ok=false" false (Proto.response_ok body);
               Alcotest.(check string) "code" "parse_error" (err_code body)
             | Error e -> Alcotest.fail (Frame.read_error_to_string e));
            (* same connection still serves *)
            Frame.write fd "{\"op\":\"ping\"}";
            (match Frame.read ~timeout:5.0 fd with
             | Ok payload ->
               Alcotest.(check bool) "ping ok" true
                 (Proto.response_ok (Result.get_ok (Json.of_string payload)))
             | Error e -> Alcotest.fail (Frame.read_error_to_string e))));
    t "oversized frame gets an error and a clean close; server keeps serving" (fun () ->
        with_server @@ fun addr ->
        let fd = raw_connect addr in
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 0x7000_0000l;
        ignore (Unix.write fd hdr 0 4);
        (match Frame.read ~timeout:5.0 fd with
         | Ok payload ->
           Alcotest.(check string) "code" "oversized_frame"
             (err_code (Result.get_ok (Json.of_string payload)))
         | Error e -> Alcotest.fail (Frame.read_error_to_string e));
        (* the unresyncable connection is closed... *)
        (match Frame.read ~timeout:5.0 fd with
         | Error Frame.Eof -> ()
         | Ok _ -> Alcotest.fail "expected close after oversized frame"
         | Error e -> Alcotest.fail (Frame.read_error_to_string e));
        Unix.close fd;
        (* ...but the server is alive for new connections. *)
        Client.with_connection addr (fun c ->
            Alcotest.(check bool) "ping" true (Client.ping c = Ok ())));
    t "a client dying mid-frame does not hurt the server" (fun () ->
        with_server @@ fun addr ->
        let fd = raw_connect addr in
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 5000l;
        ignore (Unix.write fd hdr 0 4);
        write_raw fd "partial";
        Unix.close fd;
        Client.with_connection addr (fun c ->
            Alcotest.(check bool) "ping" true (Client.ping c = Ok ())));
    t "bad requests get structured errors" (fun () ->
        with_server @@ fun addr ->
        Client.with_connection addr @@ fun c ->
        let expect_err prefix = function
          | Error msg ->
            if not (String.length msg >= String.length prefix
                    && String.sub msg 0 (String.length prefix) = prefix)
            then Alcotest.fail (Printf.sprintf "expected %s..., got %s" prefix msg)
          | Ok _ -> Alcotest.fail ("expected " ^ prefix)
        in
        expect_err "unknown_op" (Client.rpc c ~op:"frobnicate" []);
        expect_err "bad_request" (Client.rpc c ~op:"repair" []);
        expect_err "unknown_scenario"
          (Client.repair c ~scenario:"nope" ~document:"<html></html>" ());
        expect_err "session_not_found" (Client.session_next c ~session:"s999");
        (* the connection survived all of it *)
        Alcotest.(check bool) "ping" true (Client.ping c = Ok ()));
    t "a tiny deadline yields deadline_exceeded" (fun () ->
        with_server ~domains:1 @@ fun addr ->
        Client.with_connection addr @@ fun c ->
        match
          Client.repair ~deadline_ms:0.001 c ~scenario:"cash-budget"
            ~document:(doc 4242) ()
        with
        | Error msg ->
          Alcotest.(check string) "code" "deadline_exceeded"
            (String.sub msg 0 (String.length "deadline_exceeded"))
        | Ok _ -> Alcotest.fail "expected deadline_exceeded")
  ]

(* ------------------------------------------------------------------ *)
(* Repair parity and concurrency                                       *)
(* ------------------------------------------------------------------ *)

let strip_id = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "id") kvs)
  | j -> j

(* What the server must answer for [repair] on this document, computed
   in process with the sequential solver. *)
let expected_repair_response html =
  let acq = Pipeline.acquire scenario html in
  let db = acq.Pipeline.db in
  let rows = Ground.of_constraints db scenario.Scenario.constraints in
  let result = Pipeline.repair scenario db in
  Json.to_string (Proto.ok (Proto.repair_fields ~rows db result))

let server_repair_response c html =
  match Client.repair c ~scenario:"cash-budget" ~document:html () with
  | Ok body -> Json.to_string (strip_id body)
  | Error e -> Alcotest.fail e

let parity_tests =
  [ t "server repair is byte-identical to in-process Pipeline.repair" (fun () ->
        let html = doc 4242 in
        let expected = expected_repair_response html in
        with_server @@ fun addr ->
        Client.with_connection addr (fun c ->
            Alcotest.(check string) "response" expected (server_repair_response c html)));
    t "8 concurrent repairs all match their in-process answers" (fun () ->
        let docs = List.init 4 (fun i -> doc (100 + i)) in
        let expected = List.map expected_repair_response docs in
        with_server ~domains:3 @@ fun addr ->
        (* two clients per document, all in flight at once *)
        let jobs = List.concat_map (fun d -> [ d; d ]) docs in
        let results = Array.make (List.length jobs) (Error "never ran") in
        let threads =
          List.mapi
            (fun i d ->
              Thread.create
                (fun () ->
                  results.(i) <-
                    (try
                       Client.with_connection addr (fun c ->
                           Ok (server_repair_response c d))
                     with e -> Error (Printexc.to_string e)))
                ())
            jobs
        in
        List.iter Thread.join threads;
        let expected_by_job = List.concat_map (fun e -> [ e; e ]) expected in
        List.iteri
          (fun i exp ->
            match results.(i) with
            | Ok got -> Alcotest.(check string) (Printf.sprintf "job %d" i) exp got
            | Error e -> Alcotest.fail (Printf.sprintf "job %d: %s" i e))
          expected_by_job)
  ]

(* ------------------------------------------------------------------ *)
(* Session store                                                       *)
(* ------------------------------------------------------------------ *)

(* A cheap session on a clean (consistent) document. *)
let make_session store clock =
  let acq = Pipeline.acquire scenario (doc ~years:1 ~noise:0.0 7) in
  Session.create
    ~id:(Session.Store.fresh_id store)
    ~scenario ~db:acq.Pipeline.db ~mapper:Solver.sequential ~now_ms:clock
    ~ttl_ms:(Session.Store.ttl_ms store) ()

let store_tests =
  [ t "lookups refresh the TTL; idle sessions expire" (fun () ->
        let clock = ref 0.0 in
        let store =
          Session.Store.create ~clock_ms:(fun () -> !clock) ~ttl_ms:1000.0
            ~max_sessions:4 ()
        in
        let s = make_session store !clock in
        Alcotest.(check (result unit string)) "put" (Ok ()) (Session.Store.put store s);
        clock := 800.0;
        Alcotest.(check bool) "alive at 800" true
          (Session.Store.find store s.Session.id <> None);
        (* the hit refreshed the deadline to 1800 *)
        clock := 1500.0;
        Alcotest.(check bool) "alive at 1500 after refresh" true
          (Session.Store.find store s.Session.id <> None);
        clock := 4000.0;
        Alcotest.(check bool) "expired" true
          (Session.Store.find store s.Session.id = None);
        Alcotest.(check int) "gone" 0 (Session.Store.count store));
    t "sweep evicts expired sessions" (fun () ->
        let clock = ref 0.0 in
        let store =
          Session.Store.create ~clock_ms:(fun () -> !clock) ~ttl_ms:1000.0
            ~max_sessions:4 ()
        in
        ignore (Session.Store.put store (make_session store !clock));
        ignore (Session.Store.put store (make_session store !clock));
        Alcotest.(check int) "live" 2 (Session.Store.count store);
        Alcotest.(check int) "nothing to sweep" 0
          (List.length (Session.Store.sweep store));
        clock := 2000.0;
        Alcotest.(check int) "swept" 2
          (List.length (Session.Store.sweep store));
        Alcotest.(check int) "empty" 0 (Session.Store.count store));
    t "the store caps live sessions" (fun () ->
        let clock = ref 0.0 in
        let store =
          Session.Store.create ~clock_ms:(fun () -> !clock) ~ttl_ms:1000.0
            ~max_sessions:2 ()
        in
        ignore (Session.Store.put store (make_session store !clock));
        ignore (Session.Store.put store (make_session store !clock));
        (match Session.Store.put store (make_session store !clock) with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "expected the cap to refuse");
        (* expiring the old ones makes room again *)
        clock := 2000.0;
        Alcotest.(check (result unit string)) "room after expiry" (Ok ())
          (Session.Store.put store (make_session store !clock)))
  ]

(* ------------------------------------------------------------------ *)
(* Session semantics over the wire                                     *)
(* ------------------------------------------------------------------ *)

let csvs_of_db db =
  List.map (fun r -> (r, Csv.of_relation db r)) (Schema.relation_names (Database.schema db))

let check_outcome_matches name (expected : Validation.outcome)
    (got : Client.validate_outcome) =
  Alcotest.(check bool) (name ^ ": converged") expected.Validation.converged
    (got.Client.status = "converged");
  Alcotest.(check int) (name ^ ": iterations") expected.Validation.iterations
    got.Client.iterations;
  Alcotest.(check int) (name ^ ": examined") expected.Validation.examined
    got.Client.examined;
  Alcotest.(check int) (name ^ ": pins") expected.Validation.pins got.Client.pins;
  if expected.Validation.converged then
    Alcotest.(check (list (pair string string)))
      (name ^ ": final relations")
      (csvs_of_db expected.Validation.final_db)
      got.Client.relations

let session_tests =
  [ t "accept-all session reproduces Validation.run" (fun () ->
        let html = doc 4242 in
        let acq = Pipeline.acquire scenario html in
        let operator ~cell:_ ~tuple:_ ~suggested:_ = Validation.Accept in
        let expected = Validation.run ~operator acq.Pipeline.db scenario.Scenario.constraints in
        with_server @@ fun addr ->
        Client.with_connection addr @@ fun c ->
        match
          Client.validate c ~scenario:"cash-budget" ~document:html
            ~operator:Client.accept_all ()
        with
        | Ok got -> check_outcome_matches "accept-all" expected got
        | Error e -> Alcotest.fail e);
    t "an override session accumulates pins like Validation.run" (fun () ->
        let html = doc 4242 in
        let acq = Pipeline.acquire scenario html in
        let db = acq.Pipeline.db in
        (* Override the first suggestion with its current (source) value;
           accept everything else — in process and over the wire. *)
        let first = ref true in
        let operator ~cell:(_, attr) ~tuple ~suggested:_ =
          if !first then begin
            first := false;
            let rs = Schema.relation (Database.schema db) (Tuple.relation tuple) in
            Validation.Override (Tuple.value_by_name rs tuple attr)
          end
          else Validation.Accept
        in
        let expected = Validation.run ~operator db scenario.Scenario.constraints in
        let wire_first = ref true in
        let wire_operator (s : Client.suggestion) =
          if !wire_first then begin
            wire_first := false;
            `Override s.Client.current
          end
          else `Accept
        in
        with_server @@ fun addr ->
        Client.with_connection addr @@ fun c ->
        match
          Client.validate c ~scenario:"cash-budget" ~document:html
            ~operator:wire_operator ()
        with
        | Ok got -> check_outcome_matches "override" expected got
        | Error e -> Alcotest.fail e);
    t "concurrent sessions are isolated" (fun () ->
        (* seeds chosen so both documents are actually inconsistent *)
        let html_a = doc 10 and html_b = doc 12 in
        let run_alone html =
          let acq = Pipeline.acquire scenario html in
          let operator ~cell:_ ~tuple:_ ~suggested:_ = Validation.Accept in
          Validation.run ~operator acq.Pipeline.db scenario.Scenario.constraints
        in
        let expected_a = run_alone html_a and expected_b = run_alone html_b in
        with_server @@ fun addr ->
        Client.with_connection addr @@ fun c ->
        let open_s html =
          match Client.session_open c ~scenario:"cash-budget" ~document:html () with
          | Ok body -> Option.get (Proto.string_field body "session")
          | Error e -> Alcotest.fail e
        in
        let sid_a = open_s html_a in
        let sid_b = open_s html_b in
        Alcotest.(check bool) "distinct ids" true (sid_a <> sid_b);
        (* Interleave: accept everything pending in A, then in B. *)
        let accept_all_round sid =
          match Client.session_next c ~session:sid with
          | Error e -> Alcotest.fail e
          | Ok body ->
            (match Option.bind (Proto.member "updates" body) Proto.as_list with
             | None | Some [] -> Alcotest.fail "no pending updates"
             | Some us ->
               let decisions =
                 List.map
                   (fun u ->
                     { Proto.d_tid = Option.get (Proto.int_field u "tid");
                       d_attr = Option.get (Proto.string_field u "attr");
                       d_kind = `Accept })
                   us
               in
               (match Client.session_decide c ~session:sid decisions with
                | Ok body -> body
                | Error e -> Alcotest.fail e))
        in
        let body_a = accept_all_round sid_a in
        let body_b = accept_all_round sid_b in
        let check_body name body (expected : Validation.outcome) =
          Alcotest.(check (option string)) (name ^ ": status") (Some "converged")
            (Proto.string_field body "status");
          Alcotest.(check (list (pair string string)))
            (name ^ ": relations")
            (csvs_of_db expected.Validation.final_db)
            (Client.relations_of_json body)
        in
        check_body "A" body_a expected_a;
        check_body "B" body_b expected_b;
        (* decisions against the already-converged A are rejected cleanly *)
        (match
           Client.session_decide c ~session:sid_a
             [ { Proto.d_tid = 0; d_attr = "Value"; d_kind = `Accept } ]
         with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "decide on a converged session must fail");
        Alcotest.(check bool) "close A" true
          (match Client.session_close c ~session:sid_a with
           | Ok _ -> true
           | Error _ -> false));
    t "invalid decisions are rejected without corrupting the session" (fun () ->
        let html = doc 4242 in
        with_server @@ fun addr ->
        Client.with_connection addr @@ fun c ->
        let sid =
          match Client.session_open c ~scenario:"cash-budget" ~document:html () with
          | Ok body -> Option.get (Proto.string_field body "session")
          | Error e -> Alcotest.fail e
        in
        let pending () =
          match Client.session_next c ~session:sid with
          | Ok body ->
            (match Option.bind (Proto.member "updates" body) Proto.as_list with
             | Some us -> List.filter_map Client.suggestion_of_json us
             | None -> [])
          | Error e -> Alcotest.fail e
        in
        let before = pending () in
        let first = List.hd before in
        let expect_bad decisions =
          match Client.session_decide c ~session:sid decisions with
          | Error msg ->
            Alcotest.(check string) "code" "bad_request"
              (String.sub msg 0 (String.length "bad_request"))
          | Ok _ -> Alcotest.fail "expected bad_request"
        in
        (* a cell that is not pending *)
        expect_bad [ { Proto.d_tid = 99_999; d_attr = "Value"; d_kind = `Accept } ];
        (* duplicate decisions for one cell *)
        expect_bad
          [ { Proto.d_tid = first.Client.tid; d_attr = first.Client.attr; d_kind = `Accept };
            { Proto.d_tid = first.Client.tid; d_attr = first.Client.attr; d_kind = `Accept } ];
        (* an override value outside the domain *)
        expect_bad
          [ { Proto.d_tid = first.Client.tid; d_attr = first.Client.attr;
              d_kind = `Override "not-a-number" } ];
        (* the session is untouched: same pending set *)
        Alcotest.(check int) "pending unchanged" (List.length before)
          (List.length (pending ())))
  ]

(* ------------------------------------------------------------------ *)
(* Access log: rotation and solve-gap logging                          *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let access_log_tests =
  [ t "access log rotates at the size threshold, keeping one generation"
      (fun () ->
        let sock = fresh_sock () in
        let log_path =
          Printf.sprintf "/tmp/dart-test-access-%d-%d.log" (Unix.getpid ())
            !sock_counter
        in
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ log_path; log_path ^ ".1" ];
        let cfg =
          { (Server.default_config ~scenarios:all_scenarios
               (Proto.Unix_sock sock))
            with
            Server.domains = 2;
            access_log = Some log_path;
            (* Each line is ~150-200 bytes: a handful of requests crosses
               this threshold several times. *)
            access_log_max_bytes = 400 }
        in
        let srv = Server.create cfg in
        Server.start srv;
        Fun.protect
          ~finally:(fun () ->
            Server.stop srv;
            Server.wait srv;
            (try Unix.unlink sock with Unix.Unix_error _ -> ());
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ log_path; log_path ^ ".1" ])
          (fun () ->
            Client.with_connection (Proto.Unix_sock sock) (fun c ->
                (* Enough pings to force several rotations, then one
                   repair LAST — only one rotated generation is kept, so
                   the gap-carrying line must be among the newest. *)
                for _ = 1 to 20 do
                  Alcotest.(check bool) "ping" true (Client.ping c = Ok ())
                done;
                match
                  Client.repair c ~scenario:"cash-budget" ~document:(doc 31) ()
                with
                | Ok _ -> ()
                | Error msg -> Alcotest.fail ("repair failed: " ^ msg));
            Alcotest.(check bool) "current file exists" true
              (Sys.file_exists log_path);
            Alcotest.(check bool) "rotated generation exists" true
              (Sys.file_exists (log_path ^ ".1"));
            Alcotest.(check bool) "current file restarted under threshold" true
              ((Unix.stat log_path).Unix.st_size
               <= cfg.Server.access_log_max_bytes);
            let lines = read_lines log_path @ read_lines (log_path ^ ".1") in
            (* Retention is bounded by design: current + one generation
               hold only the newest ~2x threshold of lines. *)
            Alcotest.(check bool) "retained lines present" true (lines <> []);
            Alcotest.(check bool) "older generations were dropped" true
              (List.length lines < 21);
            (* Every line in both generations is a JSON object with the
               mandatory fields; the repair line carries the gap. *)
            let saw_gap = ref false in
            List.iter
              (fun line ->
                match Json.of_string line with
                | Error e -> Alcotest.fail ("unparseable access line: " ^ e)
                | Ok j ->
                  Alcotest.(check bool) "has op" true
                    (Proto.string_field j "op" <> None);
                  if Proto.member "gap" j <> None then saw_gap := true)
              lines;
            Alcotest.(check bool) "a line recorded the solve gap" true
              !saw_gap))
  ]

(* Pool.map under a busy pool; listed last so the case numbers of the
   earlier server cases stay stable. *)
let pool_map_tests =
  [
    t "a map run by the only worker leaves nothing queued" (fun () ->
        (* No worker is idle to start an offered item, so the caller runs
           them all; an offered item it claimed would stay queued as a
           dead entry, counted against the queue's capacity. *)
        let pool = Pool.create ~domains:1 ~queue_capacity:8 () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let job () =
              let ys = Pool.map pool succ (List.init 20 Fun.id) in
              (ys, Pool.depth pool)
            in
            let fut = Option.get (Pool.try_submit pool job) in
            (* Poll rather than await: await would run a still-queued job
               on this thread, where the worker is idle. *)
            let rec result () =
              match Pool.poll fut with
              | `Done r -> Result.get_ok r
              | `Cancelled -> Alcotest.fail "cancelled"
              | `Pending_or_running -> Thread.delay 0.001; result ()
            in
            let ys, depth = result () in
            Alcotest.(check (list int)) "mapped" (List.init 20 succ) ys;
            Alcotest.(check int) "queue depth inside the worker" 0 depth))
  ]

(* Listed after [pool_map_tests] for the same reason. *)
let sigpipe_tests =
  [ t "a peer that closes before its reply does not kill the host process"
      (fun () ->
        (* An embedding process need not ignore SIGPIPE itself: with the
           default action, a reply written to the vanished peer would
           terminate this test runner. *)
        let previous = Sys.signal Sys.sigpipe Sys.Signal_default in
        Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
        @@ fun () ->
        with_server ~domains:1 @@ fun addr ->
        let fd = raw_connect addr in
        Frame.write fd
          (Json.to_string
             (Proto.request_to_json ~id:(Json.Int 1) ~op:"repair"
                [ ("scenario", Json.Str "cash-budget");
                  ("document", Json.Str (doc 4242)) ]));
        Unix.shutdown fd Unix.SHUTDOWN_ALL;
        Unix.close fd;
        (* Give the worker time to finish and answer into the closed
           socket. *)
        Thread.delay 0.5;
        Client.with_connection addr (fun c ->
            Alcotest.(check bool) "pong on a fresh connection" true
              (Client.ping c = Ok ())))
  ]

let suite =
  frame_tests @ pool_tests @ robustness_tests @ parity_tests @ store_tests
  @ session_tests @ access_log_tests @ pool_map_tests @ sigpipe_tests
