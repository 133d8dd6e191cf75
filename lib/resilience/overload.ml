(** Overload-control primitives: token bucket, circuit breaker, EWMA
    load controller with a brownout ladder, and a per-client fair queue.

    Everything here is policy, not mechanism: the server wires these
    into admission control ([Dart_server.Server]), but each piece is a
    small self-contained state machine with an injectable clock so the
    unit tests can drive it deterministically without sleeping.

    Thread safety: {!Token_bucket} and {!Breaker} and {!Controller} take
    their own locks (they are touched from every connection thread);
    {!Fair_queue} is {e not} synchronized — its caller (the worker pool)
    already holds a queue mutex. *)

module Obs = Dart_obs.Obs

let default_now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Token bucket                                                        *)
(* ------------------------------------------------------------------ *)

module Token_bucket = struct
  type t = {
    rate : float;            (* tokens per second *)
    burst : float;           (* bucket capacity *)
    mutable tokens : float;
    mutable last : float;    (* last refill timestamp, seconds *)
    now : unit -> float;
    mu : Mutex.t;
  }

  let create ?(now = default_now) ~rate ~burst () =
    if rate <= 0.0 then invalid_arg "Token_bucket.create: rate must be > 0";
    if burst <= 0.0 then invalid_arg "Token_bucket.create: burst must be > 0";
    { rate; burst; tokens = burst; last = now (); now; mu = Mutex.create () }

  let refill t =
    let n = t.now () in
    let dt = Float.max 0.0 (n -. t.last) in
    t.last <- n;
    t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate))

  (** Take [n] tokens if available; [false] = rate exceeded. *)
  let try_take ?(n = 1.0) t =
    Mutex.lock t.mu;
    refill t;
    let ok = t.tokens >= n in
    if ok then t.tokens <- t.tokens -. n;
    Mutex.unlock t.mu;
    ok

  (** Milliseconds until [n] tokens will have accumulated (0 if they
      already have) — the [retry_after_ms] hint for a shed request. *)
  let wait_hint_ms ?(n = 1.0) t =
    Mutex.lock t.mu;
    refill t;
    let missing = Float.max 0.0 (n -. t.tokens) in
    Mutex.unlock t.mu;
    missing /. t.rate *. 1000.0
end

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

module Breaker = struct
  type state = Closed | Open | Half_open

  let state_to_string = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half_open"

  type t = {
    failure_threshold : int;   (* consecutive failures that trip it *)
    cooldown_s : float;        (* Open -> Half_open delay *)
    success_threshold : int;   (* Half_open successes that close it *)
    half_open_probes : int;    (* concurrent probes admitted half-open *)
    now : unit -> float;
    mutable st : state;
    mutable failures : int;    (* consecutive, while Closed *)
    mutable successes : int;   (* consecutive, while Half_open *)
    mutable opened_at : float;
    mutable probes : int;      (* probes admitted since half-opening *)
    mu : Mutex.t;
  }

  let create ?(now = default_now) ?(failure_threshold = 5) ?(cooldown_s = 2.0)
      ?(success_threshold = 2) ?(half_open_probes = 2) () =
    if failure_threshold < 1 then
      invalid_arg "Breaker.create: failure_threshold must be >= 1";
    { failure_threshold; cooldown_s; success_threshold; half_open_probes; now;
      st = Closed; failures = 0; successes = 0; opened_at = neg_infinity;
      probes = 0; mu = Mutex.create () }

  let state t =
    Mutex.lock t.mu;
    let s = t.st in
    Mutex.unlock t.mu;
    s

  (** Ask to admit one request.  Closed: always.  Open: refuse until the
      cooldown elapses, then half-open and admit.  Half-open: admit only
      the first [half_open_probes] probes; refuse the rest until a probe
      reports back. *)
  let allow t =
    Mutex.lock t.mu;
    let admitted =
      match t.st with
      | Closed -> true
      | Open ->
        if t.now () -. t.opened_at >= t.cooldown_s then begin
          t.st <- Half_open;
          t.successes <- 0;
          t.probes <- 1;
          true
        end
        else false
      | Half_open ->
        if t.probes < t.half_open_probes then begin
          t.probes <- t.probes + 1;
          true
        end
        else false
    in
    Mutex.unlock t.mu;
    admitted

  let success t =
    Mutex.lock t.mu;
    (match t.st with
     | Closed -> t.failures <- 0
     | Half_open ->
       t.successes <- t.successes + 1;
       t.probes <- max 0 (t.probes - 1);
       if t.successes >= t.success_threshold then begin
         t.st <- Closed;
         t.failures <- 0
       end
     | Open -> ());
    Mutex.unlock t.mu

  let failure t =
    Mutex.lock t.mu;
    (match t.st with
     | Closed ->
       t.failures <- t.failures + 1;
       if t.failures >= t.failure_threshold then begin
         t.st <- Open;
         t.opened_at <- t.now ()
       end
     | Half_open ->
       (* A failed probe re-opens for a fresh cooldown. *)
       t.st <- Open;
       t.opened_at <- t.now ()
     | Open -> ());
    Mutex.unlock t.mu

  (** Return an admitted probe's slot without counting it as success or
      failure — for outcomes that say nothing about downstream health
      (the request was shed after admission, bounced off a full queue,
      or failed for client-shaped reasons).  Without this, each neutral
      outcome would leak one of the [half_open_probes] slots and a
      half-open breaker could wedge refusing everything forever. *)
  let release t =
    Mutex.lock t.mu;
    (match t.st with
     | Half_open -> t.probes <- max 0 (t.probes - 1)
     | Closed | Open -> ());
    Mutex.unlock t.mu

  (** Milliseconds left before the breaker would half-open (0 unless
      Open) — the [retry_after_ms] hint for a refused request. *)
  let retry_after_ms t =
    Mutex.lock t.mu;
    let ms =
      match t.st with
      | Open ->
        Float.max 0.0 ((t.cooldown_s -. (t.now () -. t.opened_at)) *. 1000.0)
      | Closed | Half_open -> 0.0
    in
    Mutex.unlock t.mu;
    ms
end

(* ------------------------------------------------------------------ *)
(* EWMA load controller / brownout ladder                              *)
(* ------------------------------------------------------------------ *)

module Controller = struct
  type config = {
    target_queue_wait_ms : float;
    (** queue wait that counts as load 1.0 (full but healthy) *)
    alpha : float;             (** EWMA weight of each new observation *)
    max_level : int;           (** deepest brownout tier *)
    dwell_ms : float;          (** min time between level changes *)
    base_retry_ms : float;     (** retry hint at load 1.0, scaled up *)
  }

  let default_config =
    { target_queue_wait_ms = 50.0; alpha = 0.3; max_level = 3;
      dwell_ms = 250.0; base_retry_ms = 100.0 }

  let m_changes = Obs.Metrics.counter "server.brownout_changes"

  type t = {
    cfg : config;
    now : unit -> float;
    mutable wait_ewma : float;      (* smoothed queue wait, ms *)
    mutable lvl : int;
    mutable changed_at : float;     (* last level transition *)
    mu : Mutex.t;
  }

  let create ?(now = default_now) cfg =
    if cfg.alpha <= 0.0 || cfg.alpha > 1.0 then
      invalid_arg "Controller.create: alpha must be in (0, 1]";
    if cfg.max_level < 0 then
      invalid_arg "Controller.create: max_level must be >= 0";
    { cfg; now; wait_ewma = 0.0; lvl = 0; changed_at = neg_infinity;
      mu = Mutex.create () }

  let load_unlocked t =
    t.wait_ewma /. Float.max 1e-9 t.cfg.target_queue_wait_ms

  (* The ladder: level l is entered at load >= 1 + l (1, 2, 3, ...) and
     left when load drops below 60% of that entry threshold — wide
     hysteresis plus a dwell time so the level cannot flap at a
     boundary. *)
  let enter_threshold l = float_of_int l
  let exit_threshold l = 0.6 *. enter_threshold l

  let observe t ~queue_wait_ms =
    let a = t.cfg.alpha in
    Mutex.lock t.mu;
    t.wait_ewma <- ((1.0 -. a) *. t.wait_ewma) +. (a *. queue_wait_ms);
    let load = load_unlocked t in
    let n = t.now () in
    let from = t.lvl in
    if (n -. t.changed_at) *. 1000.0 >= t.cfg.dwell_ms then begin
      if from < t.cfg.max_level && load >= enter_threshold (from + 1) then
        t.lvl <- from + 1
      else if from > 0 && load < exit_threshold from then t.lvl <- from - 1;
      if t.lvl <> from then t.changed_at <- n
    end;
    let to_ = t.lvl and wait = t.wait_ewma in
    Mutex.unlock t.mu;
    if to_ <> from then begin
      Obs.Metrics.incr m_changes;
      Obs.log Obs.Info "server.brownout"
        ~attrs:
          [ ("from", Obs.Int from); ("to", Obs.Int to_);
            ("queue_wait_ewma_ms", Obs.Float wait) ]
    end

  let load t =
    Mutex.lock t.mu;
    let l = load_unlocked t in
    Mutex.unlock t.mu;
    l

  let level t =
    Mutex.lock t.mu;
    let l = t.lvl in
    Mutex.unlock t.mu;
    l

  (** Retry hint for a shed request: grows with the smoothed load so
      clients back off harder the deeper the overload. *)
  let retry_after_ms t =
    Mutex.lock t.mu;
    let l = load_unlocked t in
    Mutex.unlock t.mu;
    Float.min 5000.0 (t.cfg.base_retry_ms *. Float.max 1.0 l)
end

(* ------------------------------------------------------------------ *)
(* Brownout ladder -> solver budget                                    *)
(* ------------------------------------------------------------------ *)

(** Map a brownout level onto a per-request B&B node budget.  Level 0 is
    full effort; level 1 cuts the tree /16 (still usually Exact on small
    components); level 2 caps at a few hundred nodes so most components
    stop at their first incumbent (provenance [Incumbent]); level 3 and
    deeper explore {e zero} nodes, which makes the solver fall straight
    through to the greedy tier ([Greedy_fallback]). *)
let brownout_nodes ~max_nodes level =
  if level <= 0 then max_nodes
  else if level = 1 then max 1 (max_nodes / 16)
  else if level = 2 then min max_nodes 200
  else 0

(* ------------------------------------------------------------------ *)
(* Per-client fair queue                                               *)
(* ------------------------------------------------------------------ *)

module Fair_queue = struct
  (* Round-robin across client ids: each client with pending items holds
     exactly one slot in [ring]; a pop serves the head client's oldest
     item and moves that client to the back of the ring.  With c active
     clients, every nonempty client queue is served at least once per c
     consecutive pops — the starvation-freedom bound the QCheck test
     drives. *)
  type 'a t = {
    queues : (string, 'a Queue.t) Hashtbl.t;
    ring : string Queue.t;     (* clients with >= 1 pending item, once each *)
    mutable total : int;
  }

  let create () = { queues = Hashtbl.create 16; ring = Queue.create (); total = 0 }

  let length t = t.total
  let is_empty t = t.total = 0

  (** Clients currently holding pending items. *)
  let clients t = Queue.length t.ring

  let push t ~client x =
    let q =
      match Hashtbl.find_opt t.queues client with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.queues client q;
        q
    in
    if Queue.is_empty q then Queue.push client t.ring;
    Queue.push x q;
    t.total <- t.total + 1

  let pop t =
    if t.total = 0 then None
    else begin
      let client = Queue.pop t.ring in
      let q = Hashtbl.find t.queues client in
      let x = Queue.pop q in
      t.total <- t.total - 1;
      if Queue.is_empty q then Hashtbl.remove t.queues client
      else Queue.push client t.ring;
      Some x
    end

  (** Drain every item, round-robin order. *)
  let drain t =
    let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
    go []
end
