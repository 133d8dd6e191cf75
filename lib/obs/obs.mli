(** Observability for the DART pipeline: spans, metrics, event sinks.

    Three orthogonal facilities, all zero-dependency (stdlib + [Unix]):

    {ul
    {- {b Spans}: hierarchical wall-clock timings.  [span "repair.component"
       ~attrs f] times [f] and emits one event when it returns (or raises).
       Nesting is tracked with an explicit stack, so sinks see each span's
       depth and exporters can reconstruct the tree.}
    {- {b Metrics}: a process-wide registry of named counters, gauges and
       fixed-bucket histograms, updated unconditionally (an increment is a
       single in-place mutation) and dumped on demand as JSON.}
    {- {b Sinks}: pluggable consumers of span/log events — a levelled text
       logger, a Chrome [trace_event] exporter for flame-graph viewing
       ([chrome://tracing] / Perfetto), a per-domain flight recorder, and
       an in-memory sink for tests.}}

    The fast path is "no sink installed": [span] then runs the thunk
    directly and [log] returns immediately, so instrumented hot paths cost
    one list-emptiness check when observability is off.  Call sites that
    would allocate attribute lists on every event should guard with
    {!enabled}.

    Everything here is safe to use from multiple domains (the server's
    worker pool relies on this): the span stack is domain-local, counters
    and gauges are atomics, histograms and sink emission are
    mutex-protected, and the clock is monotonic-safe. *)

(** {1 Severity levels} *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> (level, string) result

val set_level : level -> unit
(** Global threshold for {!log} events (spans are not filtered). Default
    [Info]. *)

val current_level : unit -> level

(** {1 Attributes and events} *)

type value = Int of int | Float of float | Str of string | Bool of bool

type attrs = (string * value) list

type event =
  | Span of {
      name : string;
      attrs : attrs;
      start_us : float;   (** wall-clock start, microseconds since epoch *)
      dur_us : float;     (** duration, microseconds *)
      depth : int;        (** nesting depth at entry; 0 = root *)
      trace_id : string;  (** request-scoped trace this span belongs to *)
      span_id : string;   (** this span's unique id *)
      parent_id : string; (** parent span id; [""] at the trace root *)
      did : int;          (** domain id the span ran on *)
    }
  | Log of {
      level : level;
      name : string;
      attrs : attrs;
      ts_us : float;
      depth : int;
      trace_id : string;  (** enclosing trace; [""] outside any trace *)
      did : int;
    }

val event_ts_us : event -> float
(** The event's timestamp ([start_us] for spans, [ts_us] for logs). *)

val event_trace_id : event -> string

(** {1 JSON}

    A minimal self-contained JSON tree: enough to serialize events and
    metric snapshots, and to parse them back (used by the bench smoke check
    and the escaping tests).  No external dependency. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering with full string escaping (control characters are
      emitted as [\u00XX]). *)

  val of_string : string -> (t, string) result
  (** Strict recursive-descent parser; [Error] carries a message with the
      offending position. *)

  val escape : string -> string
  (** The quoted, escaped JSON form of a string (including the quotes). *)
end

val json_of_event : event -> Json.t
(** The JSON representation of an event (one line per event in a
    flight-recorder dump). *)

(** {1 Clock}

    All timing in the repo goes through these helpers.  They read the
    wall clock ([Unix.gettimeofday], so timestamps stay human-meaningful
    in sinks) but are {e monotonic-safe}: the value returned never
    decreases within the process, even if NTP steps the system clock
    backwards, so durations computed from two readings — span durations,
    [Solver.stats.solve_ms], server latency metrics — are always >= 0.
    Safe to call from any domain. *)

val now_us : unit -> float
(** Monotonic-safe wall-clock microseconds since the epoch. *)

val now_ms : unit -> float
(** Monotonic-safe wall-clock milliseconds since the epoch. *)

val elapsed_us : since:float -> float
(** Microseconds elapsed since an earlier {!now_us} reading, clamped at
    [0.0]. *)

val elapsed_ms : since:float -> float
(** Milliseconds elapsed since an earlier {!now_ms} reading, clamped at
    [0.0]. *)

(** {1 Sinks} *)

type sink

val text_sink : ?min_level:level -> out_channel -> sink
(** Human-readable logger: log records at [min_level] and above; span
    records only when [min_level] is [Debug].  Flushes per event. *)

val chrome_trace_sink : out_channel -> sink
(** Chrome [trace_event] JSON-array format: spans become complete
    (["ph":"X"]) events, logs become instant (["ph":"i"]) events.  The
    closing bracket is written when the sink is closed (see
    {!close_sinks}), making the file a valid JSON document. *)

val memory_sink : unit -> sink * (unit -> event list)
(** In-memory accumulator for tests; the getter returns events in emission
    order. *)

val flight_recorder : ?capacity:int -> unit -> sink * (unit -> event list)
(** Bounded ring buffer of recent events, one ring of [capacity] (default
    256) events per domain so a busy pool domain cannot evict another's
    history.  The getter snapshots every ring, merged in timestamp order;
    filter by {!event_trace_id} to post-mortem one request.  Dropping old
    events is the point: install it permanently and dump only when a
    request ends badly. *)

val install : sink -> unit
val uninstall : sink -> unit
(** Remove (and close) one sink; unknown sinks are ignored. *)

val close_sinks : unit -> unit
(** Close and remove every installed sink (finalizing Chrome traces). *)

val enabled : unit -> bool
(** [true] iff at least one sink is installed.  Guard allocation-heavy
    event construction with this. *)

(** {1 Spans and logs} *)

val span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], emitting a {!Span} event when it completes.
    If [f] raises, the span is emitted with an ["error"] attribute and the
    exception is re-raised.  With no sink installed this is just [f ()]. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span (no-op outside any
    span).  Lets code record quantities that are only known mid-span. *)

val log : ?attrs:attrs -> level -> string -> unit
(** Emit a {!Log} event to all sinks, subject to {!set_level}. *)

val emit_span : ?attrs:attrs -> start_us:float -> dur_us:float -> string -> unit
(** Emit a pre-timed {!Span} event without running a thunk, parented like a
    span opened right now (innermost open span, else ambient
    {!Trace.context}).  For intervals whose duration elapsed before the
    observing code ran — e.g. the server's queue-wait span, emitted by the
    worker that finally dequeues the job.  No-op with no sink installed. *)

(** {1 Trace context}

    Every span carries a [trace_id] (stable across one logical request,
    even across domains and processes), a [span_id] and a [parent_id],
    so exporters can stitch the exact tree.  Identity is ambient: a span
    opened under another span inherits its trace and parents onto it; a
    span opened on an empty stack consults the domain-local ambient
    context; with neither, it starts a fresh trace.

    [with_context] is the rebinding primitive: the server pool captures
    {!Trace.current} when a job is submitted and rebinds it in the worker
    domain, and the wire protocol carries the same pair in the request
    envelope so client and server halves of a request share one trace. *)

module Trace : sig
  type context = {
    trace_id : string;
    parent_span_id : string; (** span new children parent onto; may be [""] *)
  }

  val fresh_trace_id : unit -> string
  (** A new 16-hex-digit trace id (process-unique, seeded per process). *)

  val fresh_span_id : unit -> string

  val current : unit -> context option
  (** The identity a child span opened right now would inherit: the
      innermost open span on this domain's stack, else the ambient context
      set by {!with_context}, else [None]. *)

  val with_context : context option -> (unit -> 'a) -> 'a
  (** [with_context ctx f] runs [f] with the domain's ambient context set
      to [ctx], restoring the previous value afterwards (also on raise). *)
end

(** {1 Metrics} *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Register (or look up) a monotone integer counter. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int

  val gauge : string -> gauge
  (** Register (or look up) a last-value-wins float gauge. *)

  val set : gauge -> float -> unit
  val gauge_value : gauge -> float

  val histogram : ?buckets:float array -> string -> histogram
  (** Register (or look up) a fixed-bucket histogram.  [buckets] are the
      inclusive upper bounds of each bucket, in increasing order; an
      implicit [+inf] overflow bucket is appended.  An observation [v]
      lands in the first bucket with [v <= bound]. *)

  val observe : histogram -> float -> unit
  val bucket_counts : histogram -> int array
  (** Per-bucket counts; the last entry is the overflow bucket. *)

  val histogram_bounds : histogram -> float array
  (** The finite bucket upper bounds (a copy; overflow bucket omitted). *)

  (** {2 Exemplars}

      A histogram can retain, per bucket, the worst observation seen in
      the current window together with the trace id that produced it —
      one hop from a p99 number to its trace tree.  Exemplars age out
      (window 60 s): within the window the largest value wins;
      a stale exemplar is replaced by any fresh observation. *)

  type exemplar = {
    ex_le : float;       (** the bucket's upper bound; [infinity] = overflow *)
    ex_value : float;
    ex_trace_id : string;
    ex_ts_ms : float;
  }

  val observe_ex : ?now_ms:float -> ?trace_id:string -> histogram -> float -> unit
  (** Like {!observe}; additionally considers the observation as an
      exemplar for its bucket when [trace_id] is a non-empty string.
      [now_ms] overrides the implicit timestamp (tests). *)

  val exemplars : ?now_ms:float -> histogram -> exemplar list
  (** Live (non-stale) exemplars in bucket order. *)

  val exemplars_json : ?now_ms:float -> unit -> Json.t
  (** Every histogram's live exemplars:
      [{"hist.name":[{"le":...,"value":...,"trace_id":...,"ts_ms":...}]}].
      Histograms with no live exemplar are omitted. *)

  val info : string -> (string * string) list -> unit
  (** Register (or relabel) an {e info} metric: a constant-1 gauge whose
      labels carry build/version facts
      ([dart_build_info{version="..."} 1]).  Label names are sanitized
      like metric names; label values are escaped per the text format. *)

  val escape_label_value : string -> string
  (** Escape a label value for the Prometheus text format (backslash,
      double quote and newline). *)

  val histogram_sum : histogram -> float
  val histogram_count : histogram -> int

  val quantile : histogram -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([0.0 <= q <= 1.0]) from
      the bucket counts, linearly interpolating inside the bucket the rank
      falls in (first bucket interpolates from [0.0]; ranks landing in the
      overflow bucket clamp to the last finite bound).  [0.0] on an empty
      histogram. *)

  val sanitize : string -> string
  (** Map a registry name to a valid Prometheus metric name: characters
      outside [[a-zA-Z0-9_:]] become [_], and a leading digit is
      prefixed with [_]. *)

  val prometheus : unit -> string
  (** The whole registry in Prometheus text exposition format (0.0.4):
      names sanitized (non-[[a-zA-Z0-9_:]] characters become [_]),
      counters and gauges as single samples, histograms as cumulative
      [_bucket{le="..."}] series plus [_sum]/[_count] and derived
      [_p50]/[_p95]/[_p99] gauges computed with {!quantile}. *)

  val snapshot : unit -> Json.t
  (** The whole registry as JSON:
      [{"counters":{...},"gauges":{...},"histograms":{...}}] (plus an
      ["infos"] object when {!info} metrics are registered), with names
      in registration order. *)

  val reset : unit -> unit
  (** Zero every registered metric in place (existing handles stay
      valid — they are the same mutable cells). *)
end

(** {1 Timelines}

    A bounded sampled series of [(elapsed_us, value)] points — how a
    quantity (a branch-and-bound gap, an open-node count) evolved over
    one computation.  Admission is decimated deterministically: every
    [stride]-th offered sample is retained, and when the buffer fills,
    every other retained point is dropped and the stride doubles, so
    memory stays O(capacity) for arbitrarily long runs while the series
    always spans the whole observation window.  Not thread-safe: a
    timeline belongs to the single computation it instruments. *)

module Timeline : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** A fresh timeline whose clock starts now ([capacity] >= 2,
      default 256 points). *)

  val record : ?elapsed_us:float -> ?force:bool -> t -> float -> unit
  (** Offer a sample.  [elapsed_us] overrides the implicit
      time-since-[create] stamp (for callers with their own clock);
      [force] bypasses stride decimation for must-keep points (e.g. a new
      incumbent) — forced points are still subject to halving when the
      buffer later fills. *)

  val length : t -> int
  (** Points currently retained. *)

  val capacity : t -> int

  val seen : t -> int
  (** Samples offered so far (retained or not). *)

  val points : t -> (float * float) list
  (** Retained [(elapsed_us, value)] points in record order. *)

  val to_json : t -> Json.t
  (** [[[elapsed_us, value], ...]] — a JSON list of two-element lists. *)
end

(** {1 Phase timers}

    Named wall-clock accumulators for attributing one computation's time
    across its internal phases (simplex phase-1 vs phase-2 vs dual
    restore, etc.).  A cheap owned value, not process-global state like
    {!Metrics} — create one per solve, merge children upward.  Not
    thread-safe. *)

module Phases : sig
  type t

  val create : unit -> t

  val time : t -> string -> (unit -> 'a) -> 'a
  (** Run the thunk, adding its self time (and one call) to the named
      phase; exception-safe.  Self time is the thunk's wall-clock duration
      minus that of the [time] calls nested inside it on the same [t], so
      phases never overlap and their totals add up to the timed wall
      clock. *)

  val add_us : t -> string -> float -> unit
  (** Credit a pre-measured duration (clamped at [0.0]) to the named
      phase, counting one call. *)

  val count : t -> string -> int
  val total_us : t -> string -> float
  (** [0] / [0.0] for a phase never credited. *)

  val merge_into : dst:t -> t -> unit
  (** Fold a child's phases into an aggregate (summing counts and
      totals), preserving first-use order across the merge. *)

  val to_list : t -> (string * (int * float)) list
  (** [(name, (count, total_us))] in first-use order. *)

  val to_json : t -> Json.t
  (** [{"name":{"count":n,"total_us":t},...}] in first-use order. *)
end
