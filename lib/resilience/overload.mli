(** Overload-control primitives: token bucket, EWMA load controller
    with a brownout ladder, and a per-client fair queue.

    These are the policy pieces behind the server's admission control
    (see DESIGN.md, "Overload & brownout").  Each takes an injectable
    [now] clock so tests drive the state machines deterministically.

    {!Token_bucket} and {!Controller} are thread-safe;
    {!Fair_queue} expects external synchronization (the worker pool
    calls it under its queue mutex). *)

(** Classic token bucket: capacity [burst], refilled at [rate]/s. *)
module Token_bucket : sig
  type t

  val create : ?now:(unit -> float) -> rate:float -> burst:float -> unit -> t
  (** @raise Invalid_argument unless [rate > 0] and [burst > 0]. *)

  val try_take : ?n:float -> t -> bool
  (** Take [n] (default 1) tokens if available; [false] = rate exceeded. *)

  val wait_hint_ms : ?n:float -> t -> float
  (** Milliseconds until [n] tokens will have accumulated — the
      [retry_after_ms] hint for a shed request. *)
end

(** EWMA load controller: smooths queue-wait observations into a load
    factor and maps it onto a brownout level with hysteresis and a dwell
    time (no flapping at a threshold).  Queue wait is the only load
    signal: a server whose workers keep up is at level 0 however many
    requests it holds. *)
module Controller : sig
  type config = {
    target_queue_wait_ms : float;
    (** queue wait that counts as load 1.0 (full but healthy) *)
    alpha : float;          (** EWMA weight of each new observation *)
    max_level : int;        (** deepest brownout tier *)
    dwell_ms : float;       (** min time between level changes *)
  }

  val default_config : config

  type t

  val create : ?now:(unit -> float) -> config -> t
  (** @raise Invalid_argument unless [alpha] ∈ (0,1] and [max_level ≥ 0]. *)

  val observe : t -> queue_wait_ms:float -> unit
  (** Feed one observation; may move the brownout level one step.  A
      move counts in [server.brownout_changes] and logs one Info line
      ([server.brownout]: from/to level, smoothed queue wait). *)

  val load : t -> float
  (** Smoothed load factor: 1.0 = at target, above = overloaded. *)

  val level : t -> int
  (** Current brownout level, 0 (full effort) .. [max_level]. *)
end

val brownout_nodes : max_nodes:int -> int -> int
(** Map a brownout level onto a per-request B&B node budget: level 0 =
    [max_nodes], 1 = [max_nodes]/16, 2 = ≤ 200 nodes (incumbent-only in
    practice), ≥ 3 = 0 nodes (greedy tier). *)

(** Round-robin per-client FIFO: a pop serves the head client's oldest
    item and rotates that client to the back, so with c active clients
    every nonempty client queue is served within c pops. *)
module Fair_queue : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val clients : 'a t -> int
  (** Clients currently holding pending items. *)

  val push : 'a t -> client:string -> 'a -> unit
  val pop : 'a t -> 'a option

  val drain : 'a t -> 'a list
  (** Remove and return every item, round-robin order. *)
end
