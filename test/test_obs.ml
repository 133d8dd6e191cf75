(* Tests for the observability library: spans, sinks, JSON, metrics. *)

module Obs = Dart_obs.Obs

let t name f = Alcotest.test_case name `Quick f

(* Run [f] with a fresh memory sink installed, returning (result, events).
   The sink is removed even if [f] raises, so other suites are unaffected. *)
let with_memory_sink f =
  let sink, events = Obs.memory_sink () in
  Obs.install sink;
  let result = Fun.protect ~finally:(fun () -> Obs.uninstall sink) f in
  (result, events ())

let span_name = function
  | Obs.Span { name; _ } -> Some name
  | Obs.Log _ -> None

let span_tests =
  [ t "spans nest and record depth" (fun () ->
        let (), events =
          with_memory_sink (fun () ->
              Obs.span "outer" (fun () ->
                  Obs.span "inner" (fun () -> ());
                  Obs.span "inner2" (fun () -> ())))
        in
        (* Children complete (and are emitted) before the parent. *)
        Alcotest.(check (list string)) "order"
          [ "inner"; "inner2"; "outer" ]
          (List.filter_map span_name events);
        List.iter
          (fun ev ->
            match ev with
            | Obs.Span { name = "outer"; depth; _ } ->
              Alcotest.(check int) "outer depth" 0 depth
            | Obs.Span { depth; _ } -> Alcotest.(check int) "inner depth" 1 depth
            | Obs.Log _ -> ())
          events);
    t "span returns the thunk's value" (fun () ->
        let v, _ = with_memory_sink (fun () -> Obs.span "s" (fun () -> 41 + 1)) in
        Alcotest.(check int) "value" 42 v);
    t "span durations are non-negative and attrs survive" (fun () ->
        let (), events =
          with_memory_sink (fun () ->
              Obs.span "s" ~attrs:[ ("k", Obs.Int 7) ] (fun () -> ()))
        in
        match events with
        | [ Obs.Span { name = "s"; attrs; dur_us; _ } ] ->
          Alcotest.(check bool) "dur >= 0" true (dur_us >= 0.0);
          Alcotest.(check bool) "attr present" true
            (List.mem_assoc "k" attrs && List.assoc "k" attrs = Obs.Int 7)
        | _ -> Alcotest.fail "expected exactly one span event");
    t "add_attr lands on the innermost open span" (fun () ->
        let (), events =
          with_memory_sink (fun () ->
              Obs.span "outer" (fun () ->
                  Obs.span "inner" (fun () -> Obs.add_attr "x" (Obs.Int 1));
                  Obs.add_attr "y" (Obs.Int 2)))
        in
        List.iter
          (fun ev ->
            match ev with
            | Obs.Span { name = "inner"; attrs; _ } ->
              Alcotest.(check bool) "inner has x" true (List.mem_assoc "x" attrs);
              Alcotest.(check bool) "inner lacks y" false (List.mem_assoc "y" attrs)
            | Obs.Span { name = "outer"; attrs; _ } ->
              Alcotest.(check bool) "outer has y" true (List.mem_assoc "y" attrs)
            | _ -> ())
          events);
    t "add_attr outside any span is a no-op" (fun () ->
        let (), events = with_memory_sink (fun () -> Obs.add_attr "x" (Obs.Int 1)) in
        Alcotest.(check int) "no events" 0 (List.length events));
    t "a raising span re-raises and records the error" (fun () ->
        let raised = ref false in
        let (), events =
          with_memory_sink (fun () ->
              try Obs.span "boom" (fun () -> failwith "kaput")
              with Failure _ -> raised := true)
        in
        Alcotest.(check bool) "exception propagated" true !raised;
        match events with
        | [ Obs.Span { name = "boom"; attrs; _ } ] ->
          Alcotest.(check bool) "error attr" true (List.mem_assoc "error" attrs)
        | _ -> Alcotest.fail "expected the failed span to be emitted");
    t "no sink installed: fast path, nothing recorded" (fun () ->
        Alcotest.(check bool) "disabled" false (Obs.enabled ());
        Alcotest.(check int) "span is transparent" 9 (Obs.span "s" (fun () -> 9));
        Obs.log Obs.Error "nobody-listens";
        Alcotest.(check bool) "still disabled" false (Obs.enabled ()));
    t "log respects the level threshold" (fun () ->
        let saved = Obs.current_level () in
        Fun.protect
          ~finally:(fun () -> Obs.set_level saved)
          (fun () ->
            Obs.set_level Obs.Warn;
            let (), events =
              with_memory_sink (fun () ->
                  Obs.log Obs.Debug "dropped";
                  Obs.log Obs.Info "dropped-too";
                  Obs.log Obs.Warn "kept";
                  Obs.log Obs.Error "kept-too")
            in
            let names =
              List.filter_map
                (function Obs.Log { name; _ } -> Some name | _ -> None)
                events
            in
            Alcotest.(check (list string)) "filtered" [ "kept"; "kept-too" ] names));
  ]

let json_tests =
  [ t "escaping round-trips through the parser" (fun () ->
        let nasty = "quote\" backslash\\ newline\n tab\t bell\007 end" in
        let doc = Obs.Json.Obj [ ("k", Obs.Json.Str nasty) ] in
        match Obs.Json.of_string (Obs.Json.to_string doc) with
        | Ok (Obs.Json.Obj [ ("k", Obs.Json.Str s) ]) ->
          Alcotest.(check string) "round-trip" nasty s
        | Ok _ -> Alcotest.fail "wrong shape after round-trip"
        | Error e -> Alcotest.fail e);
    t "control characters are \\u-escaped" (fun () ->
        let s = Obs.Json.escape "\001" in
        Alcotest.(check string) "escaped" "\"\\u0001\"" s);
    t "values round-trip" (fun () ->
        let doc =
          Obs.Json.Obj
            [ ("i", Obs.Json.Int (-42)); ("f", Obs.Json.Float 2.5);
              ("b", Obs.Json.Bool true); ("n", Obs.Json.Null);
              ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str "x" ]);
              ("o", Obs.Json.Obj []) ]
        in
        match Obs.Json.of_string (Obs.Json.to_string doc) with
        | Ok doc' -> Alcotest.(check bool) "equal" true (doc = doc')
        | Error e -> Alcotest.fail e);
    t "invalid JSON yields Error, not an exception" (fun () ->
        List.iter
          (fun bad ->
            match Obs.Json.of_string bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted invalid JSON %S" bad)
          [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]);
    t "json_of_event emits parseable objects" (fun () ->
        let (), events =
          with_memory_sink (fun () ->
              Obs.span "s" ~attrs:[ ("msg", Obs.Str "a\"b") ] (fun () ->
                  Obs.log Obs.Error "e" ~attrs:[ ("n", Obs.Float 1.5) ]))
        in
        Alcotest.(check int) "two events" 2 (List.length events);
        List.iter
          (fun ev ->
            match Obs.Json.of_string (Obs.Json.to_string (Obs.json_of_event ev)) with
            | Ok (Obs.Json.Obj kvs) ->
              Alcotest.(check bool) "has type" true (List.mem_assoc "type" kvs)
            | Ok _ -> Alcotest.fail "event JSON is not an object"
            | Error e -> Alcotest.fail e)
          events);
  ]

(* The Chrome exporter writes a JSON array that only becomes well-formed on
   close; check the whole lifecycle through a real file. *)
let chrome_trace_test =
  t "chrome trace file is a valid JSON array after close" (fun () ->
      let path = Filename.temp_file "dart_obs" ".trace.json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out path in
          let sink = Obs.chrome_trace_sink oc in
          Obs.install sink;
          (try
             Obs.span "alpha" (fun () -> Obs.span "beta" (fun () -> ()));
             Obs.log Obs.Error "note" ~attrs:[ ("k", Obs.Int 3) ]
           with e -> Obs.uninstall sink; raise e);
          Obs.uninstall sink;
          close_out oc;
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Obs.Json.of_string (String.trim text) with
          | Ok (Obs.Json.List entries) ->
            (* One thread_name metadata record (first sighting of the lane)
               plus the three events. *)
            Alcotest.(check int) "four trace entries" 4 (List.length entries);
            let pid = Unix.getpid () in
            (match entries with
             | Obs.Json.Obj kvs :: _ ->
               Alcotest.(check bool) "first entry is metadata" true
                 (List.assoc_opt "ph" kvs = Some (Obs.Json.Str "M"));
               Alcotest.(check bool) "metadata names the lane" true
                 (List.assoc_opt "name" kvs = Some (Obs.Json.Str "thread_name"))
             | _ -> Alcotest.fail "first trace entry is not an object");
            List.iter
              (fun e ->
                match e with
                | Obs.Json.Obj kvs ->
                  Alcotest.(check bool) "has ph" true (List.mem_assoc "ph" kvs);
                  Alcotest.(check bool) "real pid" true
                    (List.assoc_opt "pid" kvs = Some (Obs.Json.Int pid));
                  Alcotest.(check bool) "has tid" true (List.mem_assoc "tid" kvs)
                | _ -> Alcotest.fail "trace entry is not an object")
              entries
          | Ok _ -> Alcotest.fail "trace is not a JSON array"
          | Error e -> Alcotest.fail e))

(* Two lanes in one trace: a span from the test domain and one from a
   spawned domain must land on distinct tids, each introduced by its own
   thread_name metadata record. *)
let chrome_two_domain_test =
  t "chrome trace separates domains into tid lanes" (fun () ->
      let path = Filename.temp_file "dart_obs" ".trace2.json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out path in
          let sink = Obs.chrome_trace_sink oc in
          Obs.install sink;
          (try
             Obs.span "main-side" (fun () -> ());
             Domain.join
               (Domain.spawn (fun () -> Obs.span "worker-side" (fun () -> ())))
           with e -> Obs.uninstall sink; raise e);
          Obs.uninstall sink;
          close_out oc;
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Obs.Json.of_string (String.trim text) with
          | Ok (Obs.Json.List entries) ->
            let field k = function
              | Obs.Json.Obj kvs -> List.assoc_opt k kvs
              | _ -> None
            in
            let metas, events =
              List.partition
                (fun e -> field "ph" e = Some (Obs.Json.Str "M"))
                entries
            in
            Alcotest.(check int) "one metadata record per lane" 2
              (List.length metas);
            let tids =
              List.sort_uniq compare (List.filter_map (field "tid") events)
            in
            Alcotest.(check int) "two distinct tids" 2 (List.length tids);
            List.iter
              (fun m ->
                match (field "tid" m, field "args" m) with
                | Some (Obs.Json.Int tid), Some (Obs.Json.Obj args) ->
                  Alcotest.(check bool) "lane is named after the domain" true
                    (List.assoc_opt "name" args
                     = Some (Obs.Json.Str (Printf.sprintf "domain-%d" tid)))
                | _ -> Alcotest.fail "metadata record missing tid/args")
              metas
          | Ok _ -> Alcotest.fail "trace is not a JSON array"
          | Error e -> Alcotest.fail e))

let is_hex_id s =
  String.length s = 16
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let trace_tests =
  [ t "nested spans share a trace and parent onto each other" (fun () ->
        let (), events =
          with_memory_sink (fun () ->
              Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ())))
        in
        match events with
        | [ Obs.Span inner; Obs.Span outer ] ->
          Alcotest.(check bool) "trace id is 16 hex digits" true
            (is_hex_id outer.trace_id);
          Alcotest.(check string) "same trace" outer.trace_id inner.trace_id;
          Alcotest.(check string) "child parents onto outer" outer.span_id
            inner.parent_id;
          Alcotest.(check string) "root has no parent" "" outer.parent_id;
          Alcotest.(check bool) "span ids differ" true
            (inner.span_id <> outer.span_id)
        | _ -> Alcotest.fail "expected exactly two span events");
    t "with_context rebinds the ambient trace identity" (fun () ->
        let ctx =
          Some
            { Obs.Trace.trace_id = "00000000000000ca";
              parent_span_id = "00000000000000fe" }
        in
        let (), events =
          with_memory_sink (fun () ->
              Obs.Trace.with_context ctx (fun () ->
                  Obs.span "s" (fun () -> Obs.log Obs.Error "inside")))
        in
        List.iter
          (fun ev ->
            match ev with
            | Obs.Span { trace_id; parent_id; _ } ->
              Alcotest.(check string) "span adopts the trace" "00000000000000ca"
                trace_id;
              Alcotest.(check string) "span parents onto the context"
                "00000000000000fe" parent_id
            | Obs.Log { trace_id; _ } ->
              Alcotest.(check string) "log adopts the trace" "00000000000000ca"
                trace_id)
          events;
        Alcotest.(check bool) "context restored afterwards" true
          (Obs.Trace.current () = None));
    t "emit_span records a pre-timed interval under the ambient trace"
      (fun () ->
        let ctx =
          Some { Obs.Trace.trace_id = "00000000000000ab"; parent_span_id = "" }
        in
        let (), events =
          with_memory_sink (fun () ->
              Obs.Trace.with_context ctx (fun () ->
                  Obs.emit_span ~start_us:100.0 ~dur_us:50.0 "waited"))
        in
        match events with
        | [ Obs.Span { name; start_us; dur_us; trace_id; _ } ] ->
          Alcotest.(check string) "name" "waited" name;
          Alcotest.(check (float 0.0)) "start" 100.0 start_us;
          Alcotest.(check (float 0.0)) "dur" 50.0 dur_us;
          Alcotest.(check string) "trace" "00000000000000ab" trace_id
        | _ -> Alcotest.fail "expected exactly one span event");
    t "fresh ids are unique" (fun () ->
        let ids = List.init 1000 (fun _ -> Obs.Trace.fresh_trace_id ()) in
        Alcotest.(check int) "no collisions" 1000
          (List.length (List.sort_uniq compare ids));
        List.iter
          (fun id ->
            Alcotest.(check bool) "well-formed" true (is_hex_id id))
          ids);
  ]

let flight_tests =
  [ t "flight recorder keeps only the newest events" (fun () ->
        let sink, snapshot = Obs.flight_recorder ~capacity:4 () in
        Obs.install sink;
        Fun.protect
          ~finally:(fun () -> Obs.uninstall sink)
          (fun () ->
            for i = 1 to 10 do
              Obs.span (Printf.sprintf "s%d" i) (fun () -> ())
            done);
        let events = snapshot () in
        Alcotest.(check int) "bounded by capacity" 4 (List.length events);
        Alcotest.(check (list string)) "newest four, oldest first"
          [ "s7"; "s8"; "s9"; "s10" ]
          (List.filter_map span_name events));
    t "flight snapshot preserves trace ids" (fun () ->
        let sink, snapshot = Obs.flight_recorder ~capacity:8 () in
        Obs.install sink;
        Fun.protect
          ~finally:(fun () -> Obs.uninstall sink)
          (fun () ->
            Obs.Trace.with_context
              (Some { Obs.Trace.trace_id = "00000000000000aa"; parent_span_id = "" })
              (fun () -> Obs.span "a" (fun () -> Obs.log Obs.Error "l")));
        List.iter
          (fun ev ->
            Alcotest.(check string) "trace id retained" "00000000000000aa"
              (Obs.event_trace_id ev))
          (snapshot ()));
  ]

let metrics_tests =
  [ t "counters accumulate and alias by name" (fun () ->
        let c = Obs.Metrics.counter "test.obs.counter" in
        let before = Obs.Metrics.value c in
        Obs.Metrics.incr c;
        Obs.Metrics.add c 4;
        Alcotest.(check int) "value" (before + 5) (Obs.Metrics.value c);
        let c' = Obs.Metrics.counter "test.obs.counter" in
        Obs.Metrics.incr c';
        Alcotest.(check int) "aliased" (before + 6) (Obs.Metrics.value c));
    t "gauges are last-value-wins" (fun () ->
        let g = Obs.Metrics.gauge "test.obs.gauge" in
        Obs.Metrics.set g 2.0;
        Obs.Metrics.set g 7.5;
        Alcotest.(check (float 0.0)) "value" 7.5 (Obs.Metrics.gauge_value g));
    t "histogram bucket edges are inclusive upper bounds" (fun () ->
        let h = Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "test.obs.hist" in
        (* One observation per interesting edge:
           1.0 -> bucket le=1; 1.5, 2.0 -> le=2; 5.0 -> le=5; 5.1 -> +inf. *)
        List.iter (Obs.Metrics.observe h) [ 1.0; 1.5; 2.0; 5.0; 5.1; 0.0 ];
        Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |] (Obs.Metrics.bucket_counts h));
    t "snapshot is JSON with all three sections" (fun () ->
        ignore (Obs.Metrics.counter "test.obs.counter2");
        match Obs.Metrics.snapshot () with
        | Obs.Json.Obj kvs ->
          List.iter
            (fun k -> Alcotest.(check bool) k true (List.mem_assoc k kvs))
            [ "counters"; "gauges"; "histograms" ];
          (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Obj kvs)) with
           | Ok _ -> ()
           | Error e -> Alcotest.fail e)
        | _ -> Alcotest.fail "snapshot is not an object");
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let quantile_tests =
  [ t "quantiles interpolate within the target bucket" (fun () ->
        let h =
          Obs.Metrics.histogram ~buckets:[| 10.0; 20.0; 30.0; 40.0 |]
            "test.obs.quantile"
        in
        for i = 1 to 40 do
          Obs.Metrics.observe h (float_of_int i)
        done;
        let check_q q expect =
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "q=%.2f" q)
            expect (Obs.Metrics.quantile h q)
        in
        check_q 0.5 20.0;
        check_q 0.95 38.0;
        check_q 0.99 39.6);
    t "quantile of an empty histogram is zero" (fun () ->
        let h =
          Obs.Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test.obs.quantile.empty"
        in
        Alcotest.(check (float 0.0)) "empty" 0.0 (Obs.Metrics.quantile h 0.5));
    t "overflow observations clamp to the last finite bound" (fun () ->
        let h =
          Obs.Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test.obs.quantile.inf"
        in
        List.iter (Obs.Metrics.observe h) [ 100.0; 200.0; 300.0 ];
        Alcotest.(check (float 0.0)) "clamped" 2.0 (Obs.Metrics.quantile h 0.99));
    t "quantile arguments are clamped to [0,1]" (fun () ->
        let h =
          Obs.Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test.obs.quantile.clamp"
        in
        List.iter (Obs.Metrics.observe h) [ 0.5; 1.5 ];
        Alcotest.(check (float 1e-9)) "q > 1 behaves as q = 1"
          (Obs.Metrics.quantile h 1.0)
          (Obs.Metrics.quantile h 2.0);
        Alcotest.(check bool) "q < 0 behaves as q = 0" true
          (Obs.Metrics.quantile h (-1.0) = Obs.Metrics.quantile h 0.0));
    t "histogram sum and count track observations" (fun () ->
        let h =
          Obs.Metrics.histogram ~buckets:[| 10.0 |] "test.obs.quantile.sumcount"
        in
        List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.5 ];
        Alcotest.(check int) "count" 3 (Obs.Metrics.histogram_count h);
        Alcotest.(check (float 1e-9)) "sum" 6.5 (Obs.Metrics.histogram_sum h));
    t "single-sample histogram puts every quantile in its bucket" (fun () ->
        let h =
          Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |]
            "test.obs.quantile.single"
        in
        Obs.Metrics.observe h 1.5;
        (* One observation in (1,2]: interpolation never leaves the
           bucket, whatever q is. *)
        List.iter
          (fun q ->
            let v = Obs.Metrics.quantile h q in
            Alcotest.(check bool)
              (Printf.sprintf "q=%.2f within bucket" q)
              true
              (v >= 1.0 && v <= 2.0))
          [ 0.0; 0.5; 0.95; 0.99; 1.0 ]);
    Qcheck_util.to_alcotest
      (QCheck.Test.make ~count:200 ~long_factor:5
         ~name:"histogram quantiles are monotone (p50 <= p95 <= p99)"
         QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 2000.0))
         (fun samples ->
           (* A private (unregistered-name-collision-free) histogram per
              property case would bloat the registry: reuse one and reset
              it by observing into a fresh one each time instead. *)
           let h =
             Obs.Metrics.histogram
               ~buckets:[| 0.1; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1000.0 |]
               "test.obs.quantile.qcheck"
           in
           Obs.Metrics.reset ();
           List.iter (Obs.Metrics.observe h) samples;
           let p50 = Obs.Metrics.quantile h 0.50 in
           let p95 = Obs.Metrics.quantile h 0.95 in
           let p99 = Obs.Metrics.quantile h 0.99 in
           p50 <= p95 && p95 <= p99));
  ]

let timeline_tests =
  [ t "timeline stays within capacity and keeps the first point" (fun () ->
        let tl = Obs.Timeline.create ~capacity:16 () in
        for i = 0 to 999 do
          Obs.Timeline.record tl ~elapsed_us:(float_of_int i) (float_of_int i)
        done;
        Alcotest.(check bool) "bounded" true (Obs.Timeline.length tl <= 16);
        Alcotest.(check int) "seen counts admitted points" 1000
          (Obs.Timeline.seen tl);
        (match Obs.Timeline.points tl with
         | (t0, v0) :: _ ->
           Alcotest.(check (float 0.0)) "first point time" 0.0 t0;
           Alcotest.(check (float 0.0)) "first point value" 0.0 v0
         | [] -> Alcotest.fail "timeline empty after 1000 records"));
    t "timeline points are in time order after decimation" (fun () ->
        let tl = Obs.Timeline.create ~capacity:8 () in
        for i = 0 to 499 do
          Obs.Timeline.record tl ~elapsed_us:(float_of_int i) 1.0
        done;
        let ts = List.map fst (Obs.Timeline.points tl) in
        Alcotest.(check bool) "sorted" true (List.sort compare ts = ts));
    t "forced records are admitted regardless of stride" (fun () ->
        let tl = Obs.Timeline.create ~capacity:8 () in
        for i = 0 to 99 do
          Obs.Timeline.record tl ~elapsed_us:(float_of_int i) 0.5
        done;
        let n = Obs.Timeline.length tl in
        Obs.Timeline.record tl ~elapsed_us:1000.0 ~force:true 9.9;
        let pts = Obs.Timeline.points tl in
        Alcotest.(check bool) "forced point present" true
          (List.exists (fun (_, v) -> v = 9.9) pts);
        Alcotest.(check bool) "length grew or halved, still bounded" true
          (Obs.Timeline.length tl <= 8 && Obs.Timeline.length tl >= min 1 n));
    t "timeline json is a list of [t, v] pairs" (fun () ->
        let tl = Obs.Timeline.create ~capacity:4 () in
        Obs.Timeline.record tl ~elapsed_us:1.0 2.0;
        Obs.Timeline.record tl ~elapsed_us:3.0 4.0;
        match Obs.Timeline.to_json tl with
        | Obs.Json.List [ Obs.Json.List [ _; _ ]; Obs.Json.List [ _; _ ] ] -> ()
        | j -> Alcotest.fail ("unexpected shape: " ^ Obs.Json.to_string j));
  ]

let phases_tests =
  [ t "phases accumulate counts and totals in first-use order" (fun () ->
        let p = Obs.Phases.create () in
        Obs.Phases.add_us p "b" 10.0;
        Obs.Phases.add_us p "a" 5.0;
        Obs.Phases.add_us p "b" 2.5;
        Alcotest.(check (list string)) "order"
          [ "b"; "a" ]
          (List.map (fun (n, _) -> n) (Obs.Phases.to_list p));
        Alcotest.(check int) "b count" 2 (Obs.Phases.count p "b");
        Alcotest.(check (float 1e-9)) "b total" 12.5 (Obs.Phases.total_us p "b");
        Alcotest.(check int) "missing phase count" 0 (Obs.Phases.count p "zz"));
    t "negative durations clamp to zero" (fun () ->
        let p = Obs.Phases.create () in
        Obs.Phases.add_us p "x" (-3.0);
        Alcotest.(check (float 0.0)) "clamped" 0.0 (Obs.Phases.total_us p "x");
        Alcotest.(check int) "still counted" 1 (Obs.Phases.count p "x"));
    t "time runs the thunk and records even on raise" (fun () ->
        let p = Obs.Phases.create () in
        let v = Obs.Phases.time p "ok" (fun () -> 7) in
        Alcotest.(check int) "value" 7 v;
        (try
           ignore (Obs.Phases.time p "boom" (fun () -> failwith "x"));
           Alcotest.fail "exception swallowed"
         with Failure _ -> ());
        Alcotest.(check int) "ok counted" 1 (Obs.Phases.count p "ok");
        Alcotest.(check int) "raised phase still counted" 1
          (Obs.Phases.count p "boom"));
    t "nested phases record self time and add up to the wall clock" (fun () ->
        let p = Obs.Phases.create () in
        let t0 = Obs.now_us () in
        Obs.Phases.time p "outer" (fun () ->
            Unix.sleepf 0.02;
            Obs.Phases.time p "inner" (fun () -> Unix.sleepf 0.03);
            Unix.sleepf 0.01);
        let elapsed = Obs.now_us () -. t0 in
        let outer = Obs.Phases.total_us p "outer" in
        let inner = Obs.Phases.total_us p "inner" in
        Alcotest.(check bool)
          (Printf.sprintf "inner %.0f us covers its 30 ms sleep" inner)
          true (inner >= 30_000.0);
        Alcotest.(check bool)
          (Printf.sprintf "outer %.0f + inner %.0f within 2%% of %.0f us"
             outer inner elapsed)
          true
          (Float.abs (outer +. inner -. elapsed) <= 0.02 *. elapsed);
        Alcotest.(check bool)
          (Printf.sprintf "outer %.0f us excludes the inner phase" outer)
          true
          (outer <= elapsed -. inner +. (0.02 *. elapsed)));
    t "merge_into adds phase-wise and preserves destination order" (fun () ->
        let a = Obs.Phases.create () and b = Obs.Phases.create () in
        Obs.Phases.add_us a "p1" 1.0;
        Obs.Phases.add_us b "p1" 2.0;
        Obs.Phases.add_us b "p2" 3.0;
        Obs.Phases.merge_into ~dst:a b;
        Alcotest.(check (float 1e-9)) "p1 merged" 3.0 (Obs.Phases.total_us a "p1");
        Alcotest.(check int) "p1 count" 2 (Obs.Phases.count a "p1");
        Alcotest.(check (float 1e-9)) "p2 adopted" 3.0 (Obs.Phases.total_us a "p2");
        Alcotest.(check (list string)) "order" [ "p1"; "p2" ]
          (List.map fst (Obs.Phases.to_list a)));
  ]

let prometheus_tests =
  [ t "prometheus exposition renders all metric kinds" (fun () ->
        let c = Obs.Metrics.counter "test.obs.prom.counter" in
        Obs.Metrics.add c 3;
        let g = Obs.Metrics.gauge "test.obs.prom.gauge" in
        Obs.Metrics.set g 1.5;
        let h =
          Obs.Metrics.histogram ~buckets:[| 5.0; 50.0 |] "test.obs.prom.hist"
        in
        List.iter (Obs.Metrics.observe h) [ 1.0; 7.0; 100.0 ];
        let text = Obs.Metrics.prometheus () in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains text needle))
          [ "# TYPE test_obs_prom_counter counter";
            "test_obs_prom_counter 3";
            "# TYPE test_obs_prom_gauge gauge";
            "test_obs_prom_gauge 1.5";
            "# TYPE test_obs_prom_hist histogram";
            "test_obs_prom_hist_bucket{le=\"5\"} 1";
            "test_obs_prom_hist_bucket{le=\"50\"} 2";
            "test_obs_prom_hist_bucket{le=\"+Inf\"} 3";
            "test_obs_prom_hist_sum 108";
            "test_obs_prom_hist_count 3";
            "test_obs_prom_hist_p50";
            "test_obs_prom_hist_p95";
            "test_obs_prom_hist_p99" ]);
    t "prometheus names are sanitized" (fun () ->
        Alcotest.(check string) "dots become underscores" "a_b_c"
          (Obs.Metrics.sanitize "a.b-c"));
  ]

let level_tests =
  [ t "level strings round-trip" (fun () ->
        List.iter
          (fun l ->
            match Obs.level_of_string (Obs.level_to_string l) with
            | Ok l' -> Alcotest.(check bool) "round-trip" true (l = l')
            | Error e -> Alcotest.fail e)
          [ Obs.Debug; Obs.Info; Obs.Warn; Obs.Error ];
        (match Obs.level_of_string "WARNING" with
         | Ok Obs.Warn -> ()
         | _ -> Alcotest.fail "WARNING should parse as Warn");
        match Obs.level_of_string "loud" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "nonsense level accepted");
  ]

let suite =
  span_tests @ json_tests
  @ [ chrome_trace_test; chrome_two_domain_test ]
  @ trace_tests @ flight_tests @ metrics_tests @ quantile_tests
  @ timeline_tests @ phases_tests @ prometheus_tests @ level_tests
