(* Durability tests: checksummed record framing, the sharded WAL,
   atomic snapshots, the process-wide solve cache, crash recovery of
   validation sessions (restart a server on the same data dir and resume
   byte-identically), and single-flight coalescing. *)

open Dart
open Dart_constraints
open Dart_repair
open Dart_server
open Dart_durable
module Obs = Dart_obs.Obs
module Json = Obs.Json
module Faultsim = Dart_faultsim.Faultsim

let t name f = Alcotest.test_case name `Quick f

let scenario = Test_server.scenario
let constraints = scenario.Scenario.constraints

let c_hits = Obs.Metrics.counter "repair.cache_hits"
let c_misses = Obs.Metrics.counter "repair.cache_misses"
let c_evictions = Obs.Metrics.counter "repair.cache_evictions"
let c_nodes = Obs.Metrics.counter "milp.nodes"
let c_coalesced = Obs.Metrics.counter "server.coalesced"
let c_recovered = Obs.Metrics.counter "sessions.recovered"

(* ------------------------------------------------------------------ *)
(* Scratch directories and raw file surgery                            *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  incr dir_counter;
  let dir =
    Printf.sprintf "/tmp/dart-durable-%d-%d" (Unix.getpid ()) !dir_counter
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let file_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let put_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_bytes path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Codec: framing, truncation, corruption                              *)
(* ------------------------------------------------------------------ *)

let write_records path payloads =
  let oc = open_out_bin path in
  List.iter (Codec.write_record oc) payloads;
  close_out oc

let read_back path =
  match Codec.read_file path with Ok r -> r | Error e -> Alcotest.fail e

let codec_tests =
  [ t "records round-trip through a file" (fun () ->
        with_dir @@ fun dir ->
        let path = Filename.concat dir "log" in
        let payloads =
          [ ""; "x"; "{\"ev\":\"open\"}"; String.make 10_000 'z'; "\x00\xffbin" ]
        in
        write_records path payloads;
        let got, tail = read_back path in
        Alcotest.(check (list string)) "payloads" payloads got;
        Alcotest.(check string) "clean tail" "clean" (Codec.tail_to_string tail);
        Alcotest.(check bool) "tail is Clean" true (tail = Codec.Clean));
    t "a torn tail is truncated back to the last good record" (fun () ->
        with_dir @@ fun dir ->
        let path = Filename.concat dir "log" in
        let p1 = "first" and p2 = "second" and p3 = "third-record-payload" in
        write_records path [ p1; p2; p3 ];
        let whole = file_bytes path in
        let keep = Codec.record_bytes p1 + Codec.record_bytes p2 in
        (* cut mid-payload and mid-header: both must report Truncated at
           the start of the torn record *)
        List.iter
          (fun cut ->
            put_bytes path (String.sub whole 0 cut);
            let got, tail = read_back path in
            Alcotest.(check (list string)) "prefix survives" [ p1; p2 ] got;
            match tail with
            | Codec.Truncated off -> Alcotest.(check int) "offset" keep off
            | other ->
              Alcotest.fail ("expected Truncated, got " ^ Codec.tail_to_string other))
          [ keep + Codec.header_bytes + 3; keep + 2 ]);
    t "faultsim-corrupted payload bytes fail the checksum" (fun () ->
        with_dir @@ fun dir ->
        let path = Filename.concat dir "log" in
        let p1 = "first" and p2 = "second" in
        let p3 = "the-tail-record-payload-0123456789" in
        write_records path [ p1; p2; p3 ];
        (* reuse the chaos suite's deterministic byte-flipper to damage
           the last record's payload in place *)
        let fs =
          Faultsim.create { Faultsim.disabled with Faultsim.frame_corrupt = 1.0 }
        in
        let garbled =
          match Faultsim.on_frame_write fs p3 with
          | Faultsim.Corrupt g -> g
          | _ -> Alcotest.fail "faultsim did not corrupt"
        in
        Alcotest.(check int) "same length" (String.length p3) (String.length garbled);
        Alcotest.(check bool) "bytes flipped" true (garbled <> p3);
        let off = Codec.record_bytes p1 + Codec.record_bytes p2 in
        let b = Bytes.of_string (file_bytes path) in
        Bytes.blit_string garbled 0 b (off + Codec.header_bytes)
          (String.length garbled);
        put_bytes path (Bytes.to_string b);
        let got, tail = read_back path in
        Alcotest.(check (list string)) "prefix survives" [ p1; p2 ] got;
        (match tail with
         | Codec.Corrupt (o, _) -> Alcotest.(check int) "offset" off o
         | other ->
           Alcotest.fail ("expected Corrupt, got " ^ Codec.tail_to_string other)));
    t "garbage appended by another process stops the scan" (fun () ->
        with_dir @@ fun dir ->
        let path = Filename.concat dir "log" in
        write_records path [ "a"; "b" ];
        append_bytes path "definitely not a DRT1 record";
        let got, tail = read_back path in
        Alcotest.(check (list string)) "prefix survives" [ "a"; "b" ] got;
        Alcotest.(check bool) "corrupt tail" true
          (match tail with Codec.Corrupt _ -> true | _ -> false))
  ]

(* ------------------------------------------------------------------ *)
(* WAL: sharding, replay, damaged tails                                *)
(* ------------------------------------------------------------------ *)

let ev k i = Json.Obj [ ("k", Json.Str k); ("seq", Json.Int i) ]

let replay_strings ~dir ~shards =
  List.init shards (fun shard ->
      let r = Wal.replay_shard ~dir ~shard in
      (r.Wal.damage, List.map Json.to_string r.Wal.events))

let wal_tests =
  [ t "append/replay round-trips across shards in order" (fun () ->
        with_dir @@ fun dir ->
        let w = Wal.create ~shards:4 dir in
        let keys = [ "s1"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7" ] in
        let evs =
          List.init 21 (fun i -> (List.nth keys (i mod 7), ev (List.nth keys (i mod 7)) i))
        in
        List.iter (fun (k, e) -> Wal.append w ~key:k e) evs;
        Wal.close w;
        Alcotest.(check (option int)) "meta records the layout" (Some 4)
          (Wal.meta_shards dir);
        (* an existing directory's shard count wins over the argument *)
        let w2 = Wal.create ~shards:9 dir in
        Alcotest.(check int) "existing meta wins" 4 (Wal.shards w2);
        Wal.close w2;
        let expected =
          List.init 4 (fun shard ->
              ( None,
                List.filter_map
                  (fun (k, e) ->
                    if Wal.shard_of w2 k = shard then Some (Json.to_string e)
                    else None)
                  evs ))
        in
        let got = replay_strings ~dir ~shards:4 in
        Alcotest.(check bool) "per-shard append order" true (expected = got);
        Alcotest.(check bool) "replay is repeatable" true
          (got = replay_strings ~dir ~shards:4));
    t "a damaged shard tail is skipped; the prefix survives" (fun () ->
        with_dir @@ fun dir ->
        let w = Wal.create ~shards:1 dir in
        List.iter (fun i -> Wal.append w ~key:"k" (ev "k" i)) [ 0; 1; 2 ];
        Wal.close w;
        let seg = Filename.concat dir "wal-00.log" in
        let whole = file_bytes seg in
        (* torn append: the last record loses its final bytes *)
        put_bytes seg (String.sub whole 0 (String.length whole - 5));
        let r = Wal.replay_shard ~dir ~shard:0 in
        Alcotest.(check (list string)) "good prefix"
          [ Json.to_string (ev "k" 0); Json.to_string (ev "k" 1) ]
          (List.map Json.to_string r.Wal.events);
        Alcotest.(check bool) "torn tail reported" true (r.Wal.damage <> None);
        (* garbage after intact records: everything good still replays *)
        put_bytes seg whole;
        append_bytes seg "\xde\xadgarbage";
        let r2 = Wal.replay_shard ~dir ~shard:0 in
        Alcotest.(check int) "all events" 3 (List.length r2.Wal.events);
        Alcotest.(check bool) "garbage tail reported" true (r2.Wal.damage <> None));
    t "a framed but unparseable record is dropped with its suffix" (fun () ->
        with_dir @@ fun dir ->
        let w = Wal.create ~shards:1 dir in
        Wal.append w ~key:"k" (ev "k" 0);
        Wal.close w;
        let seg = Filename.concat dir "wal-00.log" in
        let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 seg in
        Codec.write_record oc "this is not json";
        close_out oc;
        let r = Wal.replay_shard ~dir ~shard:0 in
        Alcotest.(check int) "good prefix" 1 (List.length r.Wal.events);
        Alcotest.(check bool) "skipped" true (r.Wal.skipped >= 1);
        Alcotest.(check bool) "reported" true (r.Wal.damage <> None))
  ]

let wal_determinism =
  QCheck.Test.make ~count:30 ~long_factor:5
    ~name:"WAL replay is deterministic (same appends => same events)"
    QCheck.(list (pair (oneofl [ "s1"; "s2"; "s3"; "alpha"; "omega" ]) small_int))
    (fun pairs ->
      let write dir =
        let w = Wal.create ~shards:3 dir in
        List.iteri (fun i (k, n) -> Wal.append w ~key:k (ev k (n + i))) pairs;
        Wal.close w
      in
      with_dir @@ fun d1 ->
      with_dir @@ fun d2 ->
      write d1;
      write d2;
      let a = replay_strings ~dir:d1 ~shards:3 in
      let b = replay_strings ~dir:d2 ~shards:3 in
      a = b
      && a = replay_strings ~dir:d1 ~shards:3
      && List.for_all (fun (damage, _) -> damage = None) a)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot_tests =
  [ t "snapshots replace atomically and round-trip" (fun () ->
        with_dir @@ fun dir ->
        let j1 = Json.Obj [ ("gen", Json.Int 1) ] in
        let j2 = Json.Obj [ ("gen", Json.Int 2) ] in
        Snapshot.save ~dir ~shard:3 j1;
        Alcotest.(check (option string)) "first" (Some (Json.to_string j1))
          (Option.map Json.to_string (Snapshot.load ~dir ~shard:3));
        Snapshot.save ~dir ~shard:3 j2;
        Alcotest.(check (option string)) "replaced" (Some (Json.to_string j2))
          (Option.map Json.to_string (Snapshot.load ~dir ~shard:3));
        Alcotest.(check bool) "no temp file left" true
          (Array.for_all
             (fun f -> not (Filename.check_suffix f ".tmp"))
             (Sys.readdir dir));
        Alcotest.(check bool) "other shards are empty" true
          (Snapshot.load ~dir ~shard:0 = None));
    t "a damaged snapshot loads as None" (fun () ->
        with_dir @@ fun dir ->
        Snapshot.save ~dir ~shard:0 (Json.Obj [ ("gen", Json.Int 1) ]);
        let p = Snapshot.path ~dir ~shard:0 in
        let whole = file_bytes p in
        put_bytes p (String.sub whole 0 (String.length whole - 3));
        Alcotest.(check bool) "torn" true (Snapshot.load ~dir ~shard:0 = None);
        put_bytes p "junk";
        Alcotest.(check bool) "garbage" true (Snapshot.load ~dir ~shard:0 = None))
  ]

(* ------------------------------------------------------------------ *)
(* Cross-request solve cache                                           *)
(* ------------------------------------------------------------------ *)

(* Every cache test restores the process-wide budget to 0 (disabled) so
   the byte-parity suites never see answers cached here.  Setting the
   budget to 0 first also drops anything a previous test left behind. *)
let with_cache mb f =
  Solver.Cache.set_budget_bytes 0;
  Solver.Cache.set_budget_bytes (mb * 1024 * 1024);
  Fun.protect ~finally:(fun () -> Solver.Cache.set_budget_bytes 0) f

let repaired = function
  | Solver.Repaired (rho, prov, stats) -> (rho, prov, stats)
  | _ -> Alcotest.fail "expected a repaired result"

let update_strings db rows rho =
  List.map
    (fun u -> Json.to_string (Proto.update_json db u))
    (Solver.display_order rows rho)

let cache_tests =
  [ t "identical instances hit the cache with identical repairs" (fun () ->
        with_cache 32 @@ fun () ->
        let html = Test_server.doc 4242 in
        let solve () =
          let acq = Pipeline.acquire scenario html in
          let db = acq.Pipeline.db in
          let rows = Ground.of_constraints db constraints in
          (db, rows, Solver.card_minimal db constraints)
        in
        let m0 = Obs.Metrics.value c_misses in
        let h0 = Obs.Metrics.value c_hits in
        let db1, rows1, r1 = solve () in
        Alcotest.(check bool) "first solve misses" true
          (Obs.Metrics.value c_misses > m0);
        Alcotest.(check int) "no hits yet" h0 (Obs.Metrics.value c_hits);
        (* a fresh acquisition of the same document: different Database.t,
           same canonical content -> pure cache hits *)
        let db2, rows2, r2 = solve () in
        Alcotest.(check bool) "second solve hits" true
          (Obs.Metrics.value c_hits > h0);
        let rho1, prov1, _ = repaired r1 in
        let rho2, prov2, s2 = repaired r2 in
        Alcotest.(check string) "provenance"
          (Solver.provenance_to_string prov1)
          (Solver.provenance_to_string prov2);
        Alcotest.(check (list string)) "updates"
          (update_strings db1 rows1 rho1)
          (update_strings db2 rows2 rho2);
        Alcotest.(check int) "a hit does zero branch & bound" 0 s2.Solver.nodes;
        Alcotest.(check int) "a hit does zero pivots" 0 s2.Solver.simplex_pivots);
    t "the cache spans sessions" (fun () ->
        with_cache 32 @@ fun () ->
        let html = Test_server.doc 10 in
        let open_session id =
          let acq = Pipeline.acquire scenario html in
          Session.create ~id ~scenario ~db:acq.Pipeline.db
            ~mapper:Solver.sequential ~now_ms:0.0 ~ttl_ms:1e9 ()
        in
        let pending_strings s =
          List.map
            (fun u -> Json.to_string (Proto.update_json s.Session.db u))
            (Session.pending s)
        in
        let s1 = open_session "s1" in
        let h = Obs.Metrics.value c_hits in
        let n = Obs.Metrics.value c_nodes in
        let s2 = open_session "s2" in
        Alcotest.(check bool) "a fresh session hits" true
          (Obs.Metrics.value c_hits > h);
        Alcotest.(check int) "no branch & bound" n (Obs.Metrics.value c_nodes);
        Alcotest.(check (list string)) "same proposal" (pending_strings s1)
          (pending_strings s2));
    t "a decide re-solves the pinned component; the rest hit the cache"
      (fun () ->
        with_cache 32 @@ fun () ->
        let acq = Pipeline.acquire scenario (Test_server.doc 4242) in
        let db = acq.Pipeline.db in
        let comps = Solver.components (Ground.of_constraints db constraints) in
        let violated =
          List.filter
            (fun comp ->
              not
                (List.for_all
                   (Ground.row_satisfied (Ground.db_valuation db))
                   comp))
            comps
        in
        Alcotest.(check bool) "several violated components" true
          (List.length violated >= 2);
        let s =
          Session.create ~id:"s1" ~scenario ~db ~mapper:Solver.sequential
            ~now_ms:0.0 ~ttl_ms:1e9 ()
        in
        let u =
          match Session.pending s with
          | u :: _ :: _ -> u
          | _ -> Alcotest.fail "expected at least two pending updates"
        in
        let index_of_cell cell =
          let rec go i = function
            | [] -> Alcotest.fail "pinned cell in no component"
            | comp :: rest ->
              if List.mem cell (Ground.cells comp) then i else go (i + 1) rest
          in
          go 0 comps
        in
        let pinned = index_of_cell (Update.cell u) in
        let sink, events = Obs.memory_sink () in
        let h = Obs.Metrics.value c_hits in
        let n = Obs.Metrics.value c_nodes in
        Obs.install sink;
        let outcome =
          Fun.protect
            ~finally:(fun () -> Obs.uninstall sink)
            (fun () ->
              Session.decide ~mapper:Solver.sequential s
                [ { Proto.d_tid = u.Update.tid; d_attr = u.Update.attr;
                    d_kind = `Accept } ])
        in
        (match outcome with
         | Ok (Session.Proposing _ | Session.Converged _) -> ()
         | Ok (Session.Failed why) -> Alcotest.fail why
         | Error e -> Alcotest.fail e);
        Alcotest.(check int) "every other violated component hits"
          (List.length violated - 1)
          (Obs.Metrics.value c_hits - h);
        (* Only a solved component opens a [repair.component] span; a hit
           reports zero work. *)
        let solved =
          List.filter_map
            (function
              | Obs.Span { name = "repair.component"; attrs; _ } ->
                (match
                   (List.assoc_opt "component" attrs, List.assoc_opt "nodes" attrs)
                 with
                 | Some (Obs.Int ci), Some (Obs.Int nodes) -> Some (ci, nodes)
                 | _ -> Alcotest.fail "component span without index or nodes")
              | _ -> None)
            (events ())
        in
        Alcotest.(check (list int)) "only the pinned component is solved"
          [ pinned ] (List.map fst solved);
        Alcotest.(check int) "the hits add no branch & bound nodes"
          (List.fold_left (fun acc (_, nodes) -> acc + nodes) 0 solved)
          (Obs.Metrics.value c_nodes - n));
    t "an exact answer is a hit at any node budget" (fun () ->
        with_cache 32 @@ fun () ->
        (* Seed 2 has exactly one violated component. *)
        let acq = Pipeline.acquire scenario (Test_server.doc 2) in
        let db = acq.Pipeline.db in
        let rho, prov, _ = repaired (Solver.card_minimal db constraints) in
        Alcotest.(check string) "full budget proves it" "exact"
          (Solver.provenance_to_string prov);
        let rows = Ground.of_constraints db constraints in
        List.iter
          (fun max_nodes ->
            let sink, events = Obs.memory_sink () in
            let h = Obs.Metrics.value c_hits in
            Obs.install sink;
            let r =
              Fun.protect
                ~finally:(fun () -> Obs.uninstall sink)
                (fun () -> Solver.card_minimal ~max_nodes db constraints)
            in
            let rho', prov', _ = repaired r in
            let at = Printf.sprintf " at max_nodes %d" max_nodes in
            Alcotest.(check string) ("provenance" ^ at) "exact"
              (Solver.provenance_to_string prov');
            Alcotest.(check (list string)) ("same repair" ^ at)
              (update_strings db rows rho) (update_strings db rows rho');
            Alcotest.(check int) ("one hit" ^ at) (h + 1)
              (Obs.Metrics.value c_hits);
            Alcotest.(check bool) ("no component solved" ^ at) false
              (List.exists
                 (function
                   | Obs.Span { name = "repair.component"; _ } -> true
                   | _ -> false)
                 (events ())))
          [ 200; 0 ]);
    t "a budget-truncated incumbent is not cached" (fun () ->
        let db = (Pipeline.acquire scenario (Test_server.doc 2)).Pipeline.db in
        (* The smallest budget at which branch & bound holds an incumbent
           it has not proved optimal. *)
        let rec truncated b =
          if b > 200 then Alcotest.fail "no budget yields an incumbent"
          else
            match Solver.card_minimal ~max_nodes:b db constraints with
            | Solver.Repaired (_, Solver.Incumbent, _) -> b
            | _ -> truncated (b + 1)
        in
        let max_nodes = truncated 1 in
        with_cache 32 @@ fun () ->
        let _, prov, _ =
          repaired (Solver.card_minimal ~max_nodes db constraints)
        in
        Alcotest.(check string) "truncated" "incumbent"
          (Solver.provenance_to_string prov);
        Alcotest.(check int) "nothing stored" 0 (Solver.Cache.entries ());
        let m = Obs.Metrics.value c_misses in
        let h = Obs.Metrics.value c_hits in
        let _, prov, _ = repaired (Solver.card_minimal db constraints) in
        Alcotest.(check int) "the full-budget call misses" (m + 1)
          (Obs.Metrics.value c_misses);
        Alcotest.(check int) "and does not hit" h (Obs.Metrics.value c_hits);
        Alcotest.(check string) "full budget answers exact" "exact"
          (Solver.provenance_to_string prov));
    t "a full cache evicts within its byte budget" (fun () ->
        with_cache 32 @@ fun () ->
        let solve html =
          let acq = Pipeline.acquire scenario html in
          ignore (Solver.card_minimal acq.Pipeline.db constraints)
        in
        solve (Test_server.doc 10);
        let b = Solver.Cache.bytes_used () in
        Alcotest.(check bool) "something cached" true
          (b > 0 && Solver.Cache.entries () > 0);
        (* shrink the budget to exactly the current residency: caching a
           different document now must evict *)
        Solver.Cache.set_budget_bytes b;
        let e0 = Obs.Metrics.value c_evictions in
        solve (Test_server.doc 12);
        Alcotest.(check bool) "evicted" true (Obs.Metrics.value c_evictions > e0);
        Alcotest.(check bool) "within budget" true (Solver.Cache.bytes_used () <= b))
  ]

(* ------------------------------------------------------------------ *)
(* Crash recovery over the wire                                        *)
(* ------------------------------------------------------------------ *)

let durable_cfg ?(snapshot_every = 64) ~dir () =
  let path = Test_server.fresh_sock () in
  let addr = Proto.Unix_sock path in
  let cfg = Server.default_config ~scenarios:Test_server.all_scenarios addr in
  ( path,
    addr,
    { cfg with
      Server.domains = 2; queue_capacity = 16; data_dir = Some dir;
      snapshot_every } )

let with_running cfg path f =
  let srv = Server.create cfg in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f srv)

let open_session c html =
  match Client.session_open c ~scenario:"cash-budget" ~document:html () with
  | Ok body -> Option.get (Proto.string_field body "session")
  | Error e -> Alcotest.fail e

let session_next_body c sid =
  match Client.session_next c ~session:sid with
  | Ok body -> body
  | Error e -> Alcotest.fail e

let updates_of body =
  match Option.bind (Proto.member "updates" body) Proto.as_list with
  | Some us -> us
  | None -> []

let accept_decisions us =
  List.map
    (fun u ->
      { Proto.d_tid = Option.get (Proto.int_field u "tid");
        d_attr = Option.get (Proto.string_field u "attr");
        d_kind = `Accept })
    us

let rec drive_to_convergence c sid =
  let body = session_next_body c sid in
  match Proto.string_field body "status" with
  | Some "converged" -> body
  | Some "pending" -> (
    match updates_of body with
    | [] -> Alcotest.fail "pending session with no updates"
    | us -> (
      match Client.session_decide c ~session:sid (accept_decisions us) with
      | Ok _ -> drive_to_convergence c sid
      | Error e -> Alcotest.fail e))
  | s ->
    Alcotest.fail
      (Printf.sprintf "unexpected status %s" (Option.value ~default:"?" s))

let canonical body = Json.to_string (Test_server.strip_id body)

(* Open a session, accept its first suggestion (leaving it mid-loop when
   the document has several), and return (sid, canonical session/next
   body).  The server is stopped afterwards without closing the session —
   as far as the WAL is concerned, the process just died. *)
let interrupted_round cfg path addr html =
  with_running cfg path @@ fun _srv ->
  Client.with_connection addr @@ fun c ->
  let sid = open_session c html in
  let us = updates_of (session_next_body c sid) in
  if us = [] then Alcotest.fail "expected suggestions to validate";
  let first = [ List.hd (accept_decisions us) ] in
  (match Client.session_decide c ~session:sid first with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (sid, canonical (session_next_body c sid))

let check_recovery ?(damaged = 0) srv =
  match Server.recovery srv with
  | None -> Alcotest.fail "expected a recovery summary"
  | Some r ->
    Alcotest.(check int) "recovered" 1 r.Persist.rec_recovered;
    Alcotest.(check int) "failed" 0 r.Persist.rec_failed;
    Alcotest.(check int) "expired" 0 r.Persist.rec_expired;
    if damaged = 0 then
      Alcotest.(check int) "no damage" 0 r.Persist.rec_damaged_shards
    else
      Alcotest.(check bool) "damage reported" true
        (r.Persist.rec_damaged_shards >= damaged)

let recovery_tests =
  [ t "restart on the same data dir resumes byte-identically" (fun () ->
        with_dir @@ fun dir ->
        let html = Test_server.doc 10 in
        let path1, addr1, cfg1 = durable_cfg ~dir () in
        let sid, before_stop = interrupted_round cfg1 path1 addr1 html in
        (* control: the same decisions against a volatile server *)
        let control_rel =
          let path, addr, cfg = durable_cfg ~dir:(dir ^ "-control") () in
          Fun.protect
            ~finally:(fun () -> rm_rf (dir ^ "-control"))
            (fun () ->
              with_running cfg path @@ fun _srv ->
              Client.with_connection addr @@ fun c ->
              let sid' = open_session c html in
              let us = updates_of (session_next_body c sid') in
              (match
                 Client.session_decide c ~session:sid'
                   [ List.hd (accept_decisions us) ]
               with
               | Ok _ -> ()
               | Error e -> Alcotest.fail e);
              Client.relations_of_json (drive_to_convergence c sid'))
        in
        (* restart: recovery replays the WAL back into the store *)
        let path2, addr2, cfg2 = durable_cfg ~dir () in
        let rec0 = Obs.Metrics.value c_recovered in
        with_running cfg2 path2 @@ fun srv ->
        check_recovery srv;
        Alcotest.(check bool) "sessions.recovered counted" true
          (Obs.Metrics.value c_recovered > rec0);
        Client.with_connection addr2 @@ fun c ->
        Alcotest.(check string) "resumed session state" before_stop
          (canonical (session_next_body c sid));
        (* fresh ids never collide with replayed sessions; the gauge
           counts both *)
        let sid2 = open_session c (Test_server.doc ~years:1 ~noise:0.0 7) in
        Alcotest.(check bool) "fresh id after recovery" true (sid2 <> sid);
        Alcotest.(check (float 0.001)) "server.sessions gauge" 2.0
          (Obs.Metrics.gauge_value (Obs.Metrics.gauge "server.sessions"));
        (* finishing the recovered session matches the uninterrupted run *)
        let final = drive_to_convergence c sid in
        Alcotest.(check (list (pair string string)))
          "final relations match the uninterrupted run" control_rel
          (Client.relations_of_json final));
    t "recovery survives a mauled WAL tail" (fun () ->
        with_dir @@ fun dir ->
        let html = Test_server.doc 12 in
        let path1, addr1, cfg1 = durable_cfg ~dir () in
        let sid, before_stop = interrupted_round cfg1 path1 addr1 html in
        (* a torn half-append at the tail of every live segment *)
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".log" then
              append_bytes (Filename.concat dir f) "\xde\xadtorn half-append")
          (Sys.readdir dir);
        let path2, addr2, cfg2 = durable_cfg ~dir () in
        with_running cfg2 path2 @@ fun srv ->
        check_recovery ~damaged:1 srv;
        Client.with_connection addr2 @@ fun c ->
        Alcotest.(check string) "resumed despite the damage" before_stop
          (canonical (session_next_body c sid)));
    t "recovery reads compacted snapshots, not just the log" (fun () ->
        with_dir @@ fun dir ->
        let html = Test_server.doc 10 in
        (* snapshot_every=1: every append compacts, so by stop time the
           whole state lives in snapshots and the segments are gone *)
        let path1, addr1, cfg1 = durable_cfg ~snapshot_every:1 ~dir () in
        let sid, before_stop = interrupted_round cfg1 path1 addr1 html in
        let entries = Sys.readdir dir in
        Alcotest.(check bool) "segments compacted away" true
          (Array.for_all (fun f -> not (Filename.check_suffix f ".log")) entries);
        Alcotest.(check bool) "snapshot exists" true
          (Array.exists (fun f -> Filename.check_suffix f ".snap") entries);
        let path2, addr2, cfg2 = durable_cfg ~snapshot_every:1 ~dir () in
        with_running cfg2 path2 @@ fun srv ->
        check_recovery srv;
        Client.with_connection addr2 @@ fun c ->
        Alcotest.(check string) "resumed from snapshots" before_stop
          (canonical (session_next_body c sid)))
  ]

(* ------------------------------------------------------------------ *)
(* Single-flight coalescing                                            *)
(* ------------------------------------------------------------------ *)

let coalesce_tests =
  [ t "identical in-flight repairs coalesce to one solve" (fun () ->
        let html = Test_server.doc 4242 in
        (* Stall every pool job so the second request reliably arrives
           while the first is still in flight. *)
        let attempt () =
          let path = Test_server.fresh_sock () in
          let addr = Proto.Unix_sock path in
          let cfg =
            Server.default_config ~scenarios:Test_server.all_scenarios addr
          in
          let cfg =
            { cfg with
              Server.domains = 2; queue_capacity = 16;
              faults =
                Faultsim.create
                  { Faultsim.disabled with
                    Faultsim.worker_stall = 1.0; worker_stall_ms = 300.0 } }
          in
          let before = Obs.Metrics.value c_coalesced in
          with_running cfg path @@ fun _srv ->
          let results = Array.make 2 (Error "never ran") in
          let threads =
            List.init 2 (fun i ->
                Thread.create
                  (fun () ->
                    results.(i) <-
                      (try
                         Client.with_connection addr (fun c ->
                             Client.repair c ~scenario:"cash-budget"
                               ~document:html ())
                       with e -> Error (Printexc.to_string e)))
                  ())
          in
          List.iter Thread.join threads;
          let bodies =
            Array.map
              (function Ok b -> canonical b | Error e -> Alcotest.fail e)
              results
          in
          Alcotest.(check string) "answers are byte-identical (modulo id)"
            bodies.(0) bodies.(1);
          Obs.Metrics.value c_coalesced - before
        in
        (* The overlap window is 300ms wide; retry a couple of times in
           case a loaded machine delays one client past it. *)
        let rec go n = if attempt () >= 1 then () else if n > 1 then go (n - 1)
          else Alcotest.fail "no coalescing observed in 3 attempts"
        in
        go 3)
  ]

let suite =
  codec_tests @ wal_tests
  @ [ Qcheck_util.to_alcotest wal_determinism ]
  @ snapshot_tests @ cache_tests @ recovery_tests @ coalesce_tests
