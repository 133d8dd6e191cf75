(* Health model and the telemetry HTTP surface: the check registry, the
   /metrics | /healthz | /readyz routing, readiness flips driven by a
   failing check and a failing WAL, flight-dump reason bounding,
   and the exemplar -> flight-recorder linkage. *)

open Dart_server
module Obs = Dart_obs.Obs
module Health = Dart_obs.Health
module Json = Obs.Json

let t name f = Alcotest.test_case name `Quick f

let all_scenarios = [ ("cash-budget", Dart.Budget_scenario.scenario) ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Printf.sprintf "/tmp/dart-health-%d-%d.sock" (Unix.getpid ()) !sock_counter

let with_server_cfg ?(adjust = fun c -> c) f =
  let path = fresh_sock () in
  let addr = Proto.Unix_sock path in
  let cfg = Server.default_config ~scenarios:all_scenarios addr in
  let cfg = adjust { cfg with Server.domains = 2; queue_capacity = 8 } in
  let srv = Server.create cfg in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f srv addr)

(* Raw HTTP exchange against the telemetry port; returns the full
   response (status line + headers + body). *)
let http_raw host port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      ignore (Unix.write_substring fd request 0 (String.length request));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n -> Buffer.add_subbytes buf chunk 0 n; drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      Buffer.contents buf)

let http_get host port path =
  http_raw host port (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path)

let body_of raw =
  let marker = "\r\n\r\n" in
  let n = String.length raw in
  let rec find i =
    if i + 4 > n then ""
    else if String.sub raw i 4 = marker then String.sub raw (i + 4) (n - i - 4)
    else find (i + 1)
  in
  find 0

let telemetry_of srv =
  match Server.telemetry_addr srv with
  | Some (host, port) -> (host, port)
  | None -> Alcotest.fail "telemetry listener did not start"

let with_telemetry f =
  with_server_cfg
    ~adjust:(fun c -> { c with Server.telemetry_port = Some 0 })
    (fun srv addr ->
      let host, port = telemetry_of srv in
      f srv addr host port)

let json_of body =
  match Json.of_string body with
  | Ok j -> j
  | Error e -> Alcotest.failf "body is not JSON (%s): %s" e body

let ready_status host port =
  let raw = http_get host port "/readyz" in
  let code = if contains raw "200 OK" then 200 else 503 in
  (code, json_of (body_of raw))

let culprit_list j =
  match Option.bind (Proto.member "culprits" j) Proto.as_list with
  | Some l -> List.filter_map (fun c -> Proto.as_string c) l
  | None -> Alcotest.fail "no culprits field"

(* ------------------------------------------------------------------ *)
(* The check registry                                                  *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [ t "worst status and culprits aggregate correctly" (fun () ->
        Fun.protect
          ~finally:(fun () ->
            List.iter Health.unregister [ "t_ok"; "t_deg"; "t_fail" ])
          (fun () ->
            Health.register "t_ok" (fun () -> Health.Ok);
            Alcotest.(check string) "all ok" "ok"
              (Health.status_label (Health.worst (Health.run_all ())));
            Health.register "t_deg" (fun () -> Health.Degraded "meh");
            let report = Health.run_all () in
            Alcotest.(check string) "degraded dominates ok" "degraded"
              (Health.status_label (Health.worst report));
            Alcotest.(check (list string)) "degraded is not a culprit" []
              (Health.culprits report);
            Health.register "t_fail" (fun () -> Health.Failing "dead");
            let report = Health.run_all () in
            Alcotest.(check string) "failing dominates" "failing"
              (Health.status_label (Health.worst report));
            Alcotest.(check (list string)) "only failing names" [ "t_fail" ]
              (Health.culprits report)));
    t "re-registering replaces in place; a raising check fails closed"
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Health.unregister "t_flip")
          (fun () ->
            Health.register "t_flip" (fun () -> Health.Failing "v1");
            Health.register "t_flip" (fun () -> Health.Ok);
            Alcotest.(check int) "one entry" 1
              (List.length
                 (List.filter (fun n -> n = "t_flip") (Health.names ())));
            Alcotest.(check (list string)) "replaced check is ok" []
              (Health.culprits (Health.run_all ()));
            Health.register "t_flip" (fun () -> failwith "boom");
            match List.assoc "t_flip" (Health.run_all ()) with
            | Health.Failing msg ->
              Alcotest.(check bool) "exception text kept" true
                (contains msg "boom")
            | _ -> Alcotest.fail "raising check must report Failing"));
    t "to_json carries status, culprits and per-check detail" (fun () ->
        Fun.protect
          ~finally:(fun () -> Health.unregister "t_json")
          (fun () ->
            Health.register "t_json" (fun () -> Health.Failing "the reason");
            let j = Health.to_json (Health.run_all ()) in
            Alcotest.(check (option string)) "status" (Some "failing")
              (Proto.string_field j "status");
            Alcotest.(check bool) "culprit listed" true
              (List.mem "t_json" (culprit_list j));
            let checks =
              Option.value ~default:[]
                (Option.bind (Proto.member "checks" j) Proto.as_list)
            in
            let mine =
              List.find_opt
                (fun c -> Proto.string_field c "name" = Some "t_json")
                checks
            in
            match mine with
            | Some c ->
              Alcotest.(check (option string)) "detail" (Some "the reason")
                (Proto.string_field c "detail")
            | None -> Alcotest.fail "check missing from JSON")) ]

(* ------------------------------------------------------------------ *)
(* HTTP routing                                                        *)
(* ------------------------------------------------------------------ *)

let routing_tests =
  [ t "/metrics answers Prometheus with the right content type" (fun () ->
        with_telemetry (fun _srv _addr host port ->
            let raw = http_get host port "/metrics" in
            Alcotest.(check bool) "200" true (contains raw "200 OK");
            Alcotest.(check bool) "content type" true
              (contains raw "text/plain; version=0.0.4");
            Alcotest.(check bool) "uptime series" true
              (contains (body_of raw) "server_uptime_s")));
    t "/healthz reports liveness as JSON" (fun () ->
        with_telemetry (fun _srv _addr host port ->
            let raw = http_get host port "/healthz" in
            Alcotest.(check bool) "200" true (contains raw "200 OK");
            Alcotest.(check bool) "json content type" true
              (contains raw "application/json");
            let j = json_of (body_of raw) in
            Alcotest.(check (option string)) "status ok" (Some "ok")
              (Proto.string_field j "status");
            match Proto.member "heartbeat_age_ms" j with
            | Some _ -> ()
            | None -> Alcotest.fail "no heartbeat_age_ms"));
    t "unknown paths 404; other methods 405; garbage 400" (fun () ->
        with_telemetry (fun _srv _addr host port ->
            Alcotest.(check bool) "404" true
              (contains (http_get host port "/nope") "404 Not Found");
            Alcotest.(check bool) "405" true
              (contains
                 (http_raw host port "POST /metrics HTTP/1.0\r\n\r\n")
                 "405 Method Not Allowed");
            Alcotest.(check bool) "400" true
              (contains (http_raw host port "garbage\r\n\r\n") "400 Bad Request")));
    t "HEAD answers headers with the GET length and no body" (fun () ->
        with_telemetry (fun _srv _addr host port ->
            let raw = http_raw host port "HEAD /metrics HTTP/1.0\r\n\r\n" in
            Alcotest.(check bool) "200" true (contains raw "200 OK");
            Alcotest.(check string) "no body" "" (body_of raw);
            let len =
              List.find_map
                (fun line ->
                  let prefix = "Content-Length: " in
                  if String.length line > String.length prefix
                     && String.sub line 0 (String.length prefix) = prefix
                  then
                    int_of_string_opt
                      (String.trim
                         (String.sub line (String.length prefix)
                            (String.length line - String.length prefix)))
                  else None)
                (String.split_on_char '\n' raw)
            in
            match len with
            | Some n -> Alcotest.(check bool) "length of the GET body" true (n > 0)
            | None -> Alcotest.fail "no Content-Length")) ]

(* ------------------------------------------------------------------ *)
(* Readiness flips                                                     *)
(* ------------------------------------------------------------------ *)

let readyz_tests =
  [ t "readyz flips 200 -> 503 -> 200 with a failing check" (fun () ->
        with_telemetry (fun _srv _addr host port ->
            let failing = ref false in
            Fun.protect
              ~finally:(fun () -> Health.unregister "test_check")
              (fun () ->
                Health.register "test_check" (fun () ->
                    if !failing then Health.Failing "down" else Health.Ok);
                let code, _ = ready_status host port in
                Alcotest.(check int) "ready while ok" 200 code;
                failing := true;
                let code, j = ready_status host port in
                Alcotest.(check int) "a failing check trips readiness" 503
                  code;
                Alcotest.(check bool) "culprit named" true
                  (List.mem "test_check" (culprit_list j));
                Alcotest.(check (option string)) "aggregate failing"
                  (Some "failing")
                  (Proto.string_field j "status");
                failing := false;
                let code, j = ready_status host port in
                Alcotest.(check int) "recovered" 200 code;
                Alcotest.(check (list string)) "no culprits" []
                  (culprit_list j))));
    t "a failing WAL append flips readyz until the disk recovers" (fun () ->
        let data_dir =
          Printf.sprintf "/tmp/dart-health-wal-%d-%d" (Unix.getpid ())
            (int_of_float (Unix.gettimeofday () *. 1e6) mod 1_000_000)
        in
        with_server_cfg
          ~adjust:(fun c ->
            { c with Server.telemetry_port = Some 0;
                     data_dir = Some data_dir; wal_shards = 2 })
          (fun srv addr ->
            let host, port = telemetry_of srv in
            let seg shard =
              Filename.concat data_dir (Printf.sprintf "wal-%02d.log" shard)
            in
            Fun.protect
              ~finally:(fun () ->
                for shard = 0 to 1 do
                  try Sys.remove (seg shard) with Sys_error _ -> ()
                done)
              (fun () ->
                let code, _ = ready_status host port in
                Alcotest.(check int) "ready with a healthy wal" 200 code;
                for shard = 0 to 1 do
                  (try Sys.remove (seg shard) with Sys_error _ -> ());
                  Unix.symlink "/dev/full" (seg shard)
                done;
                Client.with_connection addr (fun c ->
                    (match
                       Client.session_open c ~scenario:"cash-budget"
                         ~document:(Test_server.doc ~years:1 17) ()
                     with
                     | Ok _ -> Alcotest.fail "open must fail on a full disk"
                     | Error _ -> ());
                    let code, j = ready_status host port in
                    Alcotest.(check int) "wal failure trips readiness" 503 code;
                    Alcotest.(check bool) "wal named" true
                      (List.mem "wal" (culprit_list j));
                    (* Space comes back: the next durable append clears
                       the sticky error and readiness recovers. *)
                    for shard = 0 to 1 do
                      try Sys.remove (seg shard) with Sys_error _ -> ()
                    done;
                    (match
                       Client.session_open c ~scenario:"cash-budget"
                         ~document:(Test_server.doc ~years:1 18) ()
                     with
                     | Ok _ -> ()
                     | Error e -> Alcotest.fail ("open after recovery: " ^ e));
                    let code, _ = ready_status host port in
                    Alcotest.(check int) "recovered" 200 code)))) ]

(* ------------------------------------------------------------------ *)
(* Stats surface and exemplar linkage                                  *)
(* ------------------------------------------------------------------ *)

let stats_tests =
  [ t "stats reports uptime, durable state and health" (fun () ->
        with_server_cfg (fun _srv addr ->
            Client.with_connection addr (fun c ->
                match Client.stats c with
                | Error e -> Alcotest.fail e
                | Ok body ->
                  (match Proto.member "server" body with
                   | Some server -> (
                     match Proto.member "uptime_s" server with
                     | Some _ -> ()
                     | None -> Alcotest.fail "no server.uptime_s")
                   | None -> Alcotest.fail "no server object");
                  (match Proto.member "durable" body with
                   | Some durable ->
                     Alcotest.(check bool) "volatile here" true
                       (Proto.member "enabled" durable
                        = Some (Json.Bool false));
                     (match Proto.member "sessions_recovered" durable with
                      | Some _ -> ()
                      | None -> Alcotest.fail "no sessions_recovered")
                   | None -> Alcotest.fail "no durable object");
                  (match Proto.member "health" body with
                   | Some h ->
                     Alcotest.(check (option string)) "healthy" (Some "ok")
                       (Proto.string_field h "status")
                   | None -> Alcotest.fail "no health object"))));
    t "a durable server reports its wal shard count" (fun () ->
        let data_dir =
          Printf.sprintf "/tmp/dart-health-shards-%d" (Unix.getpid ())
        in
        with_server_cfg
          ~adjust:(fun c ->
            { c with Server.data_dir = Some data_dir; wal_shards = 3 })
          (fun _srv addr ->
            Fun.protect
              ~finally:(fun () ->
                for shard = 0 to 2 do
                  try
                    Sys.remove
                      (Filename.concat data_dir
                         (Printf.sprintf "wal-%02d.log" shard))
                  with Sys_error _ -> ()
                done;
                (try Sys.remove (Filename.concat data_dir "wal.meta")
                 with Sys_error _ -> ());
                try Unix.rmdir data_dir with Unix.Unix_error _ -> ())
              (fun () ->
                Client.with_connection addr (fun c ->
                    match Client.stats c with
                    | Error e -> Alcotest.fail e
                    | Ok body -> (
                      match Proto.member "durable" body with
                      | Some durable ->
                        Alcotest.(check bool) "enabled" true
                          (Proto.member "enabled" durable
                           = Some (Json.Bool true));
                        Alcotest.(check bool) "shards" true
                          (Proto.member "wal_shards" durable
                           = Some (Json.Int 3))
                      | None -> Alcotest.fail "no durable object")))));
    t "a slow request's exemplar trace id resolves in the flight ring"
      (fun () ->
        let dir = Printf.sprintf "/tmp/dart-health-flight-%d" (Unix.getpid ()) in
        with_server_cfg
          ~adjust:(fun c -> { c with Server.flight_dir = Some dir })
          (fun srv addr ->
            (* Clear exemplars left by earlier suites in this binary, so
               every live exemplar below belongs to this request. *)
            Obs.Metrics.reset ();
            Client.with_connection addr (fun c ->
                match
                  Client.repair c ~scenario:"cash-budget"
                    ~document:(Test_server.doc ~years:1 19) ()
                with
                | Error e -> Alcotest.fail e
                | Ok _ -> ());
            let h = Obs.Metrics.histogram "server.latency_ms" in
            let exs = Obs.Metrics.exemplars h in
            Alcotest.(check bool) "an exemplar was recorded" true (exs <> []);
            let worst =
              List.fold_left
                (fun acc (e : Obs.Metrics.exemplar) ->
                  match acc with
                  | None -> Some e
                  | Some w ->
                    if e.Obs.Metrics.ex_value > w.Obs.Metrics.ex_value then
                      Some e
                    else acc)
                None exs
            in
            match worst with
            | None -> Alcotest.fail "no worst exemplar"
            | Some w ->
              Alcotest.(check bool) "trace id is a valid token" true
                (Proto.valid_trace_id w.Obs.Metrics.ex_trace_id);
              (* The flight ring retains events for that trace: the
                 quantile is traceable to a recording. *)
              match srv.Server.flight with
              | None -> Alcotest.fail "flight recorder not running"
              | Some (_, snapshot) ->
                let hit =
                  List.exists
                    (fun e ->
                      Obs.event_trace_id e = w.Obs.Metrics.ex_trace_id)
                    (snapshot ())
                in
                Alcotest.(check bool) "trace resolvable in flight ring" true
                  hit)) ]

(* ------------------------------------------------------------------ *)
(* Flight-dump reason bounding                                         *)
(* ------------------------------------------------------------------ *)

let reason_tests =
  [ t "dump reasons are bounded and filesystem-safe" (fun () ->
        Alcotest.(check string) "passthrough" "deadline"
          (Server.sanitize_dump_reason "deadline");
        Alcotest.(check string) "slashes and dots neutralized"
          "______etc_passwd"
          (Server.sanitize_dump_reason "../../etc/passwd");
        Alcotest.(check string) "spaces and shell chars" "a_b_c_"
          (Server.sanitize_dump_reason "a b;c$");
        Alcotest.(check int) "length capped at 32" 32
          (String.length (Server.sanitize_dump_reason (String.make 500 'x')));
        Alcotest.(check string) "empty becomes unspecified" "unspecified"
          (Server.sanitize_dump_reason "")) ]

let suite =
  registry_tests @ routing_tests @ readyz_tests @ stats_tests @ reason_tests
