(** Overload-control primitives: token bucket, EWMA load controller
    with a brownout ladder, and a per-client fair queue.

    Everything here is policy, not mechanism: the server wires these
    into admission control ([Dart_server.Server]), but each piece is a
    small self-contained state machine with an injectable clock so the
    unit tests can drive it deterministically without sleeping.

    Thread safety: {!Token_bucket} and {!Controller} take their own
    locks (they are touched from every connection thread);
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
(* EWMA load controller / brownout ladder                              *)
(* ------------------------------------------------------------------ *)

module Controller = struct
  type config = {
    target_queue_wait_ms : float;
    (** queue wait that counts as load 1.0 (full but healthy) *)
    alpha : float;             (** EWMA weight of each new observation *)
    max_level : int;           (** deepest brownout tier *)
    dwell_ms : float;          (** min time between level changes *)
  }

  let default_config =
    { target_queue_wait_ms = 50.0; alpha = 0.3; max_level = 3;
      dwell_ms = 250.0 }

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
