(** Card-minimal repair computation (paper §5 + §6.3).

    Grounds the steady constraints, splits the system into connected
    components (rows sharing a cell), encodes each violated component as
    the S*(AC) MILP and solves it with exact-rational branch & bound.  The
    union of component optima is a card-minimal repair of the whole
    database.  A component pressing against the practical big-M is
    re-solved with a larger bound, so the practical M never silently
    compromises optimality. *)

open Dart_numeric
open Dart_relational
open Dart_constraints

(** One component's solve, as seen by the observatory: size, effort
    counters, per-phase time attribution and the branch-and-bound gap
    convergence series.  Reports come back in component order, one entry
    per component (satisfied components included with zero work). *)
type comp_report = {
  cr_component : int;    (** component index, in solve order *)
  cr_rows : int;         (** ground rows in the component *)
  cr_cells : int;        (** repairable cells in the component *)
  cr_vars : int;         (** MILP variables (0 when satisfied) *)
  cr_milp_rows : int;    (** MILP constraint rows *)
  cr_nodes : int;
  cr_pivots : int;
  cr_dual_pivots : int;
  cr_warm_starts : int;
  cr_warm_fallbacks : int;
  cr_retries : int;      (** big-M retries *)
  cr_status : string;
      (** ["satisfied"], a {!provenance} string, or
          ["infeasible"]/["budget"]/["cancelled"] *)
  cr_gap : float option; (** final relative gap; [0.0] when proved optimal *)
  cr_phases : (string * (int * float)) list;
      (** [(phase, (calls, total_us))]: ["phase1"], ["phase2"], ["dual"],
          ["snapshot"] — where this component's solve time went *)
  cr_gap_timeline : (float * float) list;
      (** [(elapsed_us, gap)] — how the incumbent closed on the bound *)
}

type stats = {
  components : int;
  milp_vars : int;
  milp_rows : int;
  nodes : int;
  simplex_pivots : int;  (** total simplex pivots across all node relaxations *)
  dual_pivots : int;     (** of which dual pivots spent in warm restarts *)
  warm_starts : int;     (** B&B nodes re-solved from their parent's basis *)
  warm_fallbacks : int;  (** warm attempts that fell back to a cold solve *)
  m_retries : int;
  ground_rows : int;
  cells : int;
  solve_ms : float;      (** wall-clock time of the whole card-minimal solve *)
  report : comp_report list;
      (** per-component solve reports in component order; [[]] when the
          instance was consistent or the solve failed before grounding *)
}

val empty_stats : stats

type provenance =
  | Exact            (** the card-minimal optimum, proved *)
  | Incumbent        (** best integral incumbent when branch & bound was
                         truncated (node budget) or cancelled (deadline) *)
  | Greedy_fallback  (** {!Baseline.greedy}, when B&B had no incumbent *)
(** How a repair was obtained — the anytime degradation ladder (exact →
    incumbent → greedy).  Degraded repairs still satisfy every
    constraint; they just may change more cells than necessary. *)

val provenance_to_string : provenance -> string
(** ["exact" | "incumbent" | "greedy_fallback"] — the wire/CLI form. *)

type result =
  | Consistent
  | Repaired of Repair.t * provenance * stats
  | No_repair of stats
  | Node_budget_exceeded of stats
      (** budget exhausted, no incumbent, and greedy unavailable (operator
          pins present) or non-convergent *)
  | Cancelled of stats
      (** cancelled with nothing to degrade to *)

val max_big_m_retries : int
(** How many times one component may re-solve with a 64x larger big-M —
    one shared cap whether the retry is triggered by an optimum pressing
    against M or by possibly-clipped infeasibility. *)

val components : Ground.row list -> Ground.row list list
(** Connected components under shared-cell adjacency, in first-appearance
    order. *)

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }
(** How the per-component solves are scheduled.  Must preserve order and
    length.  {!sequential} is [List.map]; [Dart_server.Pool.mapper] maps
    over a domain worker pool so independent components solve in
    parallel.  The solve result is the same either way. *)

val sequential : mapper

val card_minimal :
  ?decompose:bool -> ?max_nodes:int -> ?forced:(Ground.cell * Rat.t) list ->
  ?mapper:mapper -> ?cancel:Dart_resilience.Cancel.t ->
  Database.t -> Agg_constraint.t list -> result
(** Compute a card-minimal repair.  [forced] pins cells to exact values
    (the operator instructions of §6.3); [decompose:false] disables the
    component split (ablation E9a); [max_nodes] bounds branch & bound per
    component; [mapper] (default {!sequential}) schedules the component
    solves; [cancel] aborts the solve cooperatively (checked every few
    dozen pivots / every B&B node).  On cancellation or budget exhaustion the result degrades —
    best incumbent, then {!Baseline.greedy} (unless [forced] pins are
    present, which greedy cannot honour) — and the repair carries its
    {!provenance}; the token never makes this function raise.
    Thread-safe: concurrent calls from different domains do not share any
    mutable state. *)

(** Process-wide bounded LRU cache of per-component solves, keyed by a
    canonical content hash of the instance alone (ground rows over dense
    cell indices, current cell values, integer-domain flags, pins).
    Tuple ids are canonicalized away, so structurally identical
    sub-instances from different documents share entries.  Only proven
    answers are stored — [Exact] repairs and infeasibility — never
    budget-truncated incumbents, budget failures or deadline-cancelled
    answers.  A proven answer does not depend on the node budget that
    found it, so the budget is not part of the key: a hit is
    byte-identical to a full-budget solve, a request whose budget
    brownout cut still gets the cached exact repair, and hits contribute
    zero nodes/pivots to [stats].  It is the only answer reuse across
    {!card_minimal} calls: the validation loop's and the server sessions'
    re-solves under a growing pin set hit it for every component the new
    pins leave untouched.

    Disabled by default ([set_budget_bytes 0]); {!card_minimal} consults
    it when enabled.  Counters:
    [repair.cache_hits] / [repair.cache_misses] /
    [repair.cache_evictions]; gauges [repair.cache_entries] /
    [repair.cache_bytes].  Thread-safe. *)
module Cache : sig
  val set_budget_bytes : int -> unit
  (** Set the byte budget; [0] disables the cache and drops every entry.
      Shrinking below current residency evicts least-recently-used
      entries immediately. *)

  val budget_bytes : unit -> int
  val entries : unit -> int
  val bytes_used : unit -> int

  val clear : unit -> unit
  (** Drop all entries (the budget is unchanged). *)
end

val result_stats : result -> stats option
(** The stats carried by a result; [None] for [Consistent] (which did no
    solver work). *)

val report_gap : stats -> float option
(** The worst final branch-and-bound gap across components — [Some 0.0]
    when every solved component was proved optimal, positive when some
    component was truncated or cancelled with an incumbent ("gap at
    abort"), [None] when nothing produced a gap (all satisfied, or
    failure without an incumbent). *)

val report_json : stats -> Dart_obs.Obs.Json.t
(** The machine-readable solve report (schema ["dart-solve-report/1"]):
    aggregate totals, aggregate phase-time attribution, and one entry per
    component with its counters, phase breakdown and gap timeline.  This
    is what [dart-cli repair --solve-report] writes and [dart-cli report]
    renders.  Wall-clock fields mean the report is {e not}
    byte-deterministic — it never travels on the wire (see
    {!Dart_server.Proto}-level determinism). *)

val involvement : Ground.row list -> (Ground.cell, int) Hashtbl.t
(** How many ground rows each cell occurs in (drives the §6.3 display
    ordering). *)

val display_order : Ground.row list -> Repair.t -> Repair.t
(** Order updates most-constraint-involved first (ties broken on cell
    identity for determinism). *)
