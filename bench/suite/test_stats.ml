(* Unit tests for the benchmark's statistics, on fake data and a fake
   clock. *)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let check_float ?eps msg expected got =
  Alcotest.(check bool) (Printf.sprintf "%s: %g = %g" msg expected got) true (close ?eps expected got)
let ints a b = Array.init (b - a + 1) (fun i -> float_of_int (a + i))

let nearest_rank () =
  let a = ints 1 10 in
  check_float "p50 of 1..10" 5.0 (Stats.percentile a 50.0);
  check_float "p90 of 1..10" 9.0 (Stats.percentile a 90.0);
  check_float "p100 of 1..10" 10.0 (Stats.percentile a 100.0);
  check_float "p0 clamps to the first sample" 1.0 (Stats.percentile a 0.0);
  check_float "p90 of 1..100" 90.0 (Stats.percentile (ints 1 100) 90.0);
  check_float "p50 of one sample" 7.0 (Stats.percentile [| 7.0 |] 50.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.0));
  check_float "median sorts" 3.0 (Stats.median [ 5.0; 1.0; 3.0; 4.0; 2.0 ])

let ten_beyond () =
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.beyond ~n:100 90.0);
  Alcotest.(check bool) "100 samples support p90" true (Stats.supported ~n:100 90.0);
  Alcotest.(check bool) "99 samples do not" false (Stats.supported ~n:99 90.0);
  Alcotest.(check bool) "20 samples support p50" true (Stats.supported ~n:20 50.0);
  Alcotest.(check bool) "1000 samples support p99" true (Stats.supported ~n:1000 99.0);
  Alcotest.(check bool) "999 samples do not" false (Stats.supported ~n:999 99.0)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let quartiles () =
  let q xs (e1, e2, e3) =
    let q1, q2, q3 = Stats.quartiles xs in
    check_float "q1" e1 q1;
    check_float "q2" e2 q2;
    check_float "q3" e3 q3
  in
  q (Array.to_list (ints 1 10)) (2.75, 5.5, 8.25);
  q [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  q [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  q [ 5.0; 1.0; 4.0; 2.0; 3.0 ] (1.5, 3.0, 4.5);
  check_float "iqr share of the median" ((8.25 -. 2.75) /. 5.5)
    (Stats.iqr_frac (Array.to_list (ints 1 10)));
  check_float "no spread" 0.0 (Stats.iqr_frac [ 4.0; 4.0; 4.0 ]);
  Alcotest.check_raises "one sample" (Invalid_argument "Stats.quartiles: need at least two samples")
    (fun () -> ignore (Stats.quartiles [ 1.0 ]))

let histogram () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  check_float "interpolates in the bucket" 1.5
    (Stats.hist_quantile ~bounds ~counts:[| 0; 10; 0; 0 |] 0.5);
  check_float "first bucket from zero" 0.5
    (Stats.hist_quantile ~bounds ~counts:[| 10; 0; 0; 0 |] 0.5);
  check_float "overflow clamps to the last bound" 4.0
    (Stats.hist_quantile ~bounds ~counts:[| 0; 0; 0; 5 |] 0.9);
  check_float "empty" 0.0 (Stats.hist_quantile ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5)

(* A server answering in order on a fake clock: a request starts when it
   is due or when the previous one finishes, whichever is later. *)
let fifo ~due ~service =
  let c = Array.make (Array.length due) 0.0 in
  Array.iteri
    (fun i d ->
      let start = if i = 0 then d else Float.max d c.(i - 1) in
      c.(i) <- start +. service.(i))
    due;
  c

let open_loop_stall () =
  let due = Stats.due_times ~start:0.0 ~rate:100.0 12 in
  check_float "request 3 is due at 30 ms" 0.03 due.(3);
  (* 1 ms each, except request 3 stalls for 50 ms. *)
  let service = Array.init 12 (fun i -> if i = 3 then 0.050 else 0.001) in
  let completed = fifo ~due ~service in
  let lat = Stats.latencies_from_due ~due ~completed in
  check_float "before the stall" 0.001 lat.(2);
  check_float "the stalled reply" 0.050 lat.(3);
  (* Request 4 was due at 40 ms but waited until 80 ms. *)
  check_float "queued behind the stall" 0.041 lat.(4);
  check_float "still queued" 0.032 lat.(5);
  check_float "the backlog drains" 0.014 lat.(7);
  check_float "caught up" 0.001 lat.(9);
  (* Timed from when each was sent (after the previous reply, as a closed
     loop would), the stall would hide in one sample. *)
  let sent i = if i = 0 then due.(0) else Float.max due.(i) completed.(i - 1) in
  let from_send = Array.mapi (fun i c -> c -. sent i) completed in
  check_float "from send time" 0.001 from_send.(4)

let lag () =
  Alcotest.(check bool) "steady lag" false (Stats.lag_growing (Array.make 100 0.2));
  Alcotest.(check bool) "a growing backlog" true
    (Stats.lag_growing (Array.init 100 (fun i -> float_of_int i *. 0.1)));
  Alcotest.(check bool) "too few samples" false (Stats.lag_growing [| 0.0; 9.0 |])

let ladder () =
  let rates = Stats.ladder_rates ~lo:200.0 ~hi:3200.0 in
  Alcotest.(check int) "nine steps" 9 (List.length rates);
  check_float ~eps:1e-6 "third step" 400.0 (List.nth rates 2);
  check_float ~eps:1e-6 "last step" 3200.0 (List.nth rates 8);
  let step ?(failures = 0) ?(exact = true) ?(lag = false) rate p90 =
    { Stats.rate; p90_ms = p90; failures; all_exact = exact; lag_growing = lag }
  in
  let v steps = Stats.max_rate ~limit_ms:10.0 steps in
  check_float "highest passing step" 800.0
    (v [ step 200.0 2.0; step 400.0 3.0; step 800.0 9.9; step 1600.0 12.0 ]);
  check_float "stops at the first miss" 200.0 (v [ step 200.0 2.0; step 400.0 11.0; step 800.0 3.0 ]);
  check_float "first step misses" 0.0 (v [ step 200.0 20.0 ]);
  check_float "a failure misses" 200.0 (v [ step 200.0 1.0; step 400.0 1.0 ~failures:1 ]);
  check_float "a degraded answer misses" 200.0 (v [ step 200.0 1.0; step 400.0 1.0 ~exact:false ]);
  check_float "a growing lag misses" 200.0 (v [ step 200.0 1.0; step 400.0 1.0 ~lag:true ])

let verdicts () =
  let v ?(better = Stats.Lower) a b = Stats.verdict ~better ~bound:0.1 a b in
  let same = [ 10.0; 10.1; 9.9; 10.0; 10.05 ] in
  Alcotest.(check string) "same" "within bound" (Stats.verdict_to_string (v same same));
  Alcotest.(check string) "faster" "improved"
    (Stats.verdict_to_string (v same [ 8.0; 8.1; 7.9; 8.0; 8.05 ]));
  Alcotest.(check string) "slower" "regressed"
    (Stats.verdict_to_string (v same [ 12.0; 12.1; 11.9; 12.0; 12.05 ]));
  Alcotest.(check string) "slower is better" "improved"
    (Stats.verdict_to_string (v ~better:Stats.Higher same [ 12.0; 12.1; 11.9; 12.0; 12.05 ]));
  Alcotest.(check string) "too noisy to tell" "unresolved"
    (Stats.verdict_to_string (v same [ 8.0; 15.0; 10.0; 13.0; 7.0 ]));
  check_float "win fraction, ties for neither" 0.5
    (Stats.win_fraction ~better:Stats.Lower [ 1.0; 2.0 ] [ 1.0; 1.5 ])

let () =
  Alcotest.run "bench-stats"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond;
          Alcotest.test_case "quartiles and IQR" `Quick quartiles;
          Alcotest.test_case "histogram quantiles" `Quick histogram;
          Alcotest.test_case "open-loop stall charges the queue" `Quick open_loop_stall;
          Alcotest.test_case "generator lag" `Quick lag;
          Alcotest.test_case "rate ladder verdict" `Quick ladder;
          Alcotest.test_case "comparison verdicts" `Quick verdicts ] ) ]
