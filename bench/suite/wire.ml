(* The load generator's side of the wire: the open-loop sender/reader
   pair (the benchmark never runs more than two threads), and deltas of
   the counters the server reports through its [stats] verb. *)

module Obs = Dart_obs.Obs
module J = Obs.Json
module Frame = Dart_server.Frame
module Proto = Dart_server.Proto
module Client = Dart_server.Client

(** No reply within this long is a failed op, not a hang. *)
let op_timeout_s = 30.0

(* ------------------------------------------------------------------ *)
(* Server counters                                                     *)
(* ------------------------------------------------------------------ *)

(** The [stats] verb's reply. *)
type snapshot = J.t

let snapshot c : snapshot =
  match Client.stats c with Ok j -> j | Error e -> failwith ("stats: " ^ e)

let path (j : J.t) keys =
  List.fold_left (fun acc k -> Option.bind acc (Proto.member k)) (Some j) keys

let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0.0

let counter (s : snapshot) name = num (path s [ "metrics"; "counters"; name ])
let gauge (s : snapshot) name = num (path s [ "metrics"; "gauges"; name ])
let field (s : snapshot) keys = num (path s keys)

(** Growth of a counter between two snapshots. *)
let delta a b name = counter b name -. counter a name

(** Bucket bounds and the per-bucket growth of a histogram between two
    snapshots (the last count is the overflow bucket). *)
let hist_delta a b name =
  let buckets s =
    match path s [ "metrics"; "histograms"; name; "buckets" ] with
    | Some (J.List l) ->
      List.map (fun bk -> (Proto.member "le" bk, int_of_float (num (Proto.member "count" bk)))) l
    | _ -> []
  in
  let bb = buckets b in
  let ba = buckets a in
  let bounds =
    Array.of_list (List.filter_map (function Some (J.Float f), _ -> Some f | _ -> None) bb)
  in
  let counts =
    Array.of_list
      (List.mapi
         (fun i (_, c) -> c - (match List.nth_opt ba i with Some (_, c0) -> c0 | None -> 0))
         bb)
  in
  (bounds, counts)

let hist_quantile a b name q =
  let bounds, counts = hist_delta a b name in
  if Array.length bounds = 0 then 0.0 else Stats.hist_quantile ~bounds ~counts q

(** Server-side per-layer metrics over a window bracketed by two
    snapshots; [ops] are the requests sent in it and [client_p50_ms] the
    client-observed median. *)
let server_layers a b ~ops ~client_p50_ms =
  let per x = if ops = 0 then 0.0 else x /. float_of_int ops in
  let lat q = hist_quantile a b "server.latency_ms" q in
  let wait q = hist_quantile a b "server.queue_wait_ms" q in
  let hits = delta a b "repair.cache_hits" and misses = delta a b "repair.cache_misses" in
  let nodes = delta a b "milp.nodes" and pivots = delta a b "lp.simplex.pivots" in
  [ ("server.latency_p50_ms", lat 0.5); ("server.latency_p90_ms", lat 0.9);
    ("server.queue_wait_p50_ms", wait 0.5); ("server.queue_wait_p90_ms", wait 0.9);
    ("server.wire_ms", client_p50_ms -. lat 0.5);
    ("server.bytes_in_per_op", per (delta a b "server.bytes_in"));
    ("server.bytes_out_per_op", per (delta a b "server.bytes_out"));
    ("server.coalesced", delta a b "server.coalesced"); ("server.shed", delta a b "server.shed");
    ("server.busy", delta a b "server.busy_rejections");
    ("cache.hit_frac", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("cache.evictions", delta a b "repair.cache_evictions");
    ("cache.bytes", gauge b "repair.cache_bytes");
    ("lp.nodes", per nodes); ("lp.pivots", per pivots);
    ("lp.dual_pivots", per (delta a b "lp.simplex.dual_pivots"));
    ("lp.warm_starts", per (delta a b "lp.simplex.warm_starts"));
    ("lp.warm_fallbacks", per (delta a b "repair.warm_fallbacks"));
    ("lp.pivots_per_node", if nodes > 0.0 then pivots /. nodes else 0.0);
    ("lp.dense_fallbacks", per (delta a b "lp.simplex.dense_fallbacks"));
    ("lp.bland_fallbacks", per (delta a b "lp.simplex.bland_fallbacks"));
    ("lp.refactorizations", per (delta a b "lp.simplex.refactorizations"));
    (* The server samples its GC about once a second: these are
       approximate at window edges. *)
    ("gc.minor_mb_per_op",
     per ((gauge b "runtime.gc.minor_words" -. gauge a "runtime.gc.minor_words")
          *. float_of_int (Sys.word_size / 8) /. 1048576.0));
    ("gc.major_collections_per_op",
     per (gauge b "runtime.gc.major_collections" -. gauge a "runtime.gc.major_collections")) ]

(** Bench-side cost of the JSON envelopes: encode [request] and decode
    [reply] repeatedly, microseconds per call. *)
let json_costs ~request ~reply =
  let reps = 200 in
  let time f =
    let t0 = Obs.now_us () in
    for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
    Obs.elapsed_us ~since:t0 /. float_of_int reps
  in
  [ ("server.json_encode_us", time (fun () -> J.to_string request));
    ("server.json_decode_us", time (fun () -> J.of_string reply)) ]

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)
(* ------------------------------------------------------------------ *)

type sample = {
  due_ms : float array;
  sent_ms : float array;    (* nan when never sent *)
  done_ms : float array;    (* nan when no reply *)
  ok : bool array;          (* reply arrived and was right *)
  exact : bool array;       (* ...and carried provenance exact *)
}

(** Send [n] requests at [rate] per second over [fds], round robin,
    each at its due time whether or not earlier replies have arrived;
    a second thread reads replies.  A connection answers in order, so
    each reply belongs to the oldest request outstanding on it.
    [check i reply] judges the reply to request [i] as (right, exact).
    A request unanswered after {!op_timeout_s} fails, and so does every
    request after it. *)
let open_loop ~fds ~rate ~n ~request ~check =
  let k = Array.length fds in
  let start_s = (Obs.now_ms () +. 5.0) /. 1000.0 in
  let due_ms = Array.map (fun t -> t *. 1000.0) (Stats.due_times ~start:start_s ~rate n) in
  let s =
    { due_ms; sent_ms = Array.make n Float.nan; done_ms = Array.make n Float.nan;
      ok = Array.make n false; exact = Array.make n false }
  in
  let mu = Mutex.create () in
  let pending = Array.init k (fun _ -> Queue.create ()) in
  let received = ref 0 and sent = ref 0 and aborted = ref false in
  let locked f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f in
  let oldest_outstanding () =
    Array.fold_left
      (fun acc q -> match Queue.peek_opt q with Some i -> Float.min acc s.sent_ms.(i) | None -> acc)
      Float.infinity pending
  in
  let reader () =
    while locked (fun () -> !received < !sent || (!sent < n && not !aborted)) && not !aborted do
      match Unix.select (Array.to_list fds) [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ ->
        if Obs.now_ms () -. locked oldest_outstanding > op_timeout_s *. 1000.0 then aborted := true
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let c = ref 0 in
            Array.iteri (fun j f -> if f = fd then c := j) fds;
            match Frame.read ~timeout:op_timeout_s fd with
            | Error _ -> aborted := true
            | Ok reply ->
              let t = Obs.now_ms () in
              (match locked (fun () -> Queue.take_opt pending.(!c)) with
               | None -> aborted := true
               | Some i ->
                 s.done_ms.(i) <- t;
                 let right, ex = check i reply in
                 s.ok.(i) <- right;
                 s.exact.(i) <- ex;
                 locked (fun () -> incr received)))
          ready
    done
  in
  let th = Thread.create reader () in
  let i = ref 0 in
  while !i < n && not !aborted do
    let wait = (s.due_ms.(!i) -. Obs.now_ms ()) /. 1000.0 in
    if wait > 0.0 then Thread.delay wait;
    let c = !i mod k in
    locked (fun () ->
        Queue.push !i pending.(c);
        incr sent);
    s.sent_ms.(!i) <- Obs.now_ms ();
    (match Frame.write ~timeout:op_timeout_s fds.(c) (request !i) with
     | () -> ()
     | exception (Unix.Unix_error _ | Frame.Write_timeout) -> aborted := true);
    incr i
  done;
  Thread.join th;
  s

(** The latencies (from due time) of the requests answered rightly. *)
let latencies s =
  let lat = Stats.latencies_from_due ~due:s.due_ms ~completed:s.done_ms in
  List.filteri (fun i _ -> s.ok.(i)) (Array.to_list lat)

let failures s = Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 s.ok

(** Send lag of every request that was sent, in ms. *)
let lags s =
  Array.of_list
    (List.filter_map
       (fun i -> if Float.is_nan s.sent_ms.(i) then None else Some (s.sent_ms.(i) -. s.due_ms.(i)))
       (List.init (Array.length s.due_ms) Fun.id))
