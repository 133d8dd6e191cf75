(* Pure statistics for the benchmark: percentiles, quartiles, histogram
   quantiles, open-loop latency accounting, the rate-ladder verdict and
   the run-to-run comparison rule.  No clocks, no I/O — everything here
   is unit-tested with fake data. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** 1-based nearest rank of the [p]-th percentile among [n] samples:
    the smallest rank with at least [p]% of the samples at or below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)))

(** Nearest-rank percentile of an ascending array ([nan] when empty). *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(min n (rank ~n p) - 1)

(** Samples strictly above the [p]-th percentile's rank. *)
let beyond ~n p = n - rank ~n p

(** A percentile is reported only when at least ten samples lie beyond
    it; below that it is a statement about a handful of outliers. *)
let supported ~n p = beyond ~n p >= 10

let median xs = percentile (sorted xs) 50.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
    (the default "exclusive" method); needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(** Inter-quartile range as a share of the median. *)
let iqr_frac xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then if q3 = q1 then 0.0 else Float.infinity
  else (q3 -. q1) /. Float.abs q2

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

(** [q]-quantile of a fixed-bucket histogram given its finite upper
    [bounds] and per-bucket [counts] (one more than [bounds]: the last is
    the overflow bucket), interpolating linearly inside the bucket the
    rank falls in — the rule the program's own [Obs.Metrics.quantile]
    applies, here on bucket-count deltas over a measurement window. *)
let hist_quantile ~bounds ~counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let target = q *. float_of_int total in
    let nb = Array.length bounds in
    let rec go i cum =
      if i >= nb then bounds.(nb - 1)
      else
        let c = counts.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then begin
          let lo = if i = 0 then 0.0 else bounds.(i - 1) in
          let frac = (target -. float_of_int cum) /. float_of_int c in
          lo +. (Float.max 0.0 (Float.min 1.0 frac) *. (bounds.(i) -. lo))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

(* ------------------------------------------------------------------ *)
(* Open-loop accounting                                                *)
(* ------------------------------------------------------------------ *)

(** Send times of an open loop: request [i] is due [i / rate] seconds
    after [start], whatever happened to the requests before it. *)
let due_times ~start ~rate n = Array.init n (fun i -> start +. (float_of_int i /. rate))

(** Latency of each request counted from when it was due, not from when
    it was sent: a stall charges every request queued behind it. *)
let latencies_from_due ~due ~completed =
  Array.mapi (fun i d -> completed.(i) -. d) due

(** The generator fell behind its schedule and kept falling behind: the
    mean send lag (ms) of the second half exceeds the first half's by more
    than 1 ms. *)
let lag_growing lags =
  let n = Array.length lags in
  if n < 4 then false
  else
    let avg lo hi =
      let s = ref 0.0 in
      for i = lo to hi - 1 do s := !s +. lags.(i) done;
      !s /. float_of_int (hi - lo)
    in
    avg (n / 2) n -. avg 0 (n / 2) > 1.0

(* ------------------------------------------------------------------ *)
(* Rate ladder                                                         *)
(* ------------------------------------------------------------------ *)

(** [lo]·√2^k for k = 0, 1, … up to [hi] (inclusive, within rounding). *)
let ladder_rates ~lo ~hi =
  let rec go k acc =
    let r = lo *. (Float.sqrt 2.0 ** float_of_int k) in
    if r > hi *. 1.0001 then List.rev acc else go (k + 1) (r :: acc)
  in
  go 0 []

type step = {
  rate : float;         (* offered req/s *)
  p90_ms : float;       (* latency from due time *)
  failures : int;       (* errors, sheds, busy replies, timeouts, wrong answers *)
  all_exact : bool;     (* every repair answer had provenance exact *)
  lag_growing : bool;
}

let step_passes ~limit_ms s =
  s.failures = 0 && s.all_exact && (not s.lag_growing) && s.p90_ms <= limit_ms

(** Highest rate of the passing prefix of [steps] (run in increasing
    rate order, stopping at the first miss); [0.0] when the first step
    already misses. *)
let max_rate ~limit_ms steps =
  let rec go best = function
    | s :: rest when step_passes ~limit_ms s -> go s.rate rest
    | _ -> best
  in
  go 0.0 steps

(* ------------------------------------------------------------------ *)
(* Comparing two sets of runs                                          *)
(* ------------------------------------------------------------------ *)

type better = Higher | Lower

let better_of_string = function
  | "higher" -> Higher
  | "lower" -> Lower
  | s -> invalid_arg ("Stats.better_of_string: " ^ s)

let is_better better a b =
  match better with Higher -> a > b | Lower -> a < b

(** Share of all (a, b) pairs in which [b] reads better than [a]; ties
    count for neither side. *)
let win_fraction ~better a b =
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          incr total;
          if is_better better y x then incr wins)
        b)
    a;
  if !total = 0 then 0.0 else float_of_int !wins /. float_of_int !total

type verdict = Improved | Within_bound | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(** The comparison rule: [b] improved on [a] when it wins at least nine
    tenths of all pairs and the medians differ by more than [a]'s own
    inter-quartile spread; it is within bound when its median is no worse
    than [a]'s by more than [bound] (a share of [a]'s median); where
    either side's spread is wider than the bound the metric is
    unresolved, unless every run of [b] beats every run of [a]. *)
let verdict ~better ~bound a b =
  let ma = median a and mb = median b in
  let spread xs = if List.length xs < 2 then 0.0 else iqr_frac xs in
  let win = win_fraction ~better a b in
  let worse_by =
    if ma = 0.0 then 0.0
    else
      match better with
      | Higher -> (ma -. mb) /. Float.abs ma
      | Lower -> (mb -. ma) /. Float.abs ma
  in
  let a_spread =
    if List.length a < 2 then 0.0
    else
      let q1, _, q3 = quartiles a in
      q3 -. q1
  in
  if win >= 0.9 && Float.abs (mb -. ma) > a_spread && is_better better mb ma then
    Improved
  else if win = 1.0 then Within_bound
  else if spread a > bound || spread b > bound then Unresolved
  else if worse_by > bound then Regressed
  else Within_bound
