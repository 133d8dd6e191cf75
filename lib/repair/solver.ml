(** Card-minimal repair computation (paper §5 + §6.3).

    The ground system is first split into connected components (two rows
    are connected when they share a cell): a card-minimal repair of the
    whole system is the union of card-minimal repairs of the components,
    and the component MILPs are exponentially cheaper to branch over.  The
    E9 ablation benchmarks this decomposition.

    Each component is encoded by {!Encode} and solved by the exact-rational
    branch & bound.  If the incumbent presses against the practical big-M,
    the component is re-solved with a larger M (doubling the exponent) so
    the practical bound never silently compromises optimality.

    {!card_minimal} is the one entry point, for one-shot repairs and for
    the validation loop's re-solves under operator pins alike; answers are
    reused across calls only through the process-wide {!Cache}. *)

open Dart_numeric
open Dart_constraints
open Dart_lp

module M = Milp.Make (Field_rat)
module Obs = Dart_obs.Obs
module Cancel = Dart_resilience.Cancel

(** Everything the observatory knows about one component's solve: effort
    counters, per-phase wall-clock attribution, and the branch-and-bound
    convergence trace.  Components skipped as already satisfied get a
    ["satisfied"] entry with zero work, so the report always has exactly
    [components] entries in component order. *)
type comp_report = {
  cr_component : int;               (** component index (solve order) *)
  cr_rows : int;                    (** ground rows in this component *)
  cr_cells : int;                   (** repairable cells in this component *)
  cr_vars : int;                    (** MILP variables (0 when satisfied) *)
  cr_milp_rows : int;               (** MILP constraint rows *)
  cr_nodes : int;
  cr_pivots : int;
  cr_dual_pivots : int;
  cr_warm_starts : int;
  cr_warm_fallbacks : int;
  cr_retries : int;                 (** big-M retries *)
  cr_status : string;
      (** ["satisfied"], a {!provenance} string, or ["infeasible"] /
          ["budget"] / ["cancelled"] for a failed component *)
  cr_gap : float option;            (** final B&B gap; [0.0] when proved *)
  cr_phases : (string * (int * float)) list;
      (** [(phase, (calls, total_us))] — simplex phase attribution *)
  cr_gap_timeline : (float * float) list;
      (** [(elapsed_us, gap)] convergence series of the component's B&B *)
}

type stats = {
  components : int;
  milp_vars : int;     (** total variables across component MILPs *)
  milp_rows : int;     (** total constraint rows across component MILPs *)
  nodes : int;         (** total branch & bound nodes *)
  simplex_pivots : int; (** total simplex pivots across all node relaxations *)
  dual_pivots : int;   (** of which dual pivots spent in warm restarts *)
  warm_starts : int;   (** B&B nodes re-solved from their parent's basis *)
  warm_fallbacks : int; (** warm attempts that fell back to a cold solve *)
  m_retries : int;     (** how many times a component re-solved with larger M *)
  ground_rows : int;   (** size of S(AC) *)
  cells : int;         (** N: number of repairable cells involved *)
  solve_ms : float;    (** wall-clock time of the whole card-minimal solve *)
  report : comp_report list;
      (** per-component solve reports in component order (empty when the
          instance was consistent or the solve failed before grounding) *)
}

let empty_stats =
  { components = 0; milp_vars = 0; milp_rows = 0; nodes = 0; simplex_pivots = 0;
    dual_pivots = 0; warm_starts = 0; warm_fallbacks = 0;
    m_retries = 0; ground_rows = 0; cells = 0; solve_ms = 0.0; report = [] }

let m_big_m_retries = Obs.Metrics.counter "repair.big_m_retries"
let m_components = Obs.Metrics.counter "repair.components_solved"
let m_degraded = Obs.Metrics.counter "repair.degraded"
let m_cancelled = Obs.Metrics.counter "repair.cancelled"

(* Branch & bound warm restarts that fell back to a cold solve, summed over
   the components a solve reports: the counter's delta across a call
   equals that call's [stats.warm_fallbacks]. *)
let m_warm_fallbacks = Obs.Metrics.counter "repair.warm_fallbacks"

(** How a repair was obtained — the anytime degradation ladder.  [Exact]
    is the card-minimal optimum; [Incumbent] is the best integral
    solution branch & bound held when the search was truncated (node
    budget) or cancelled (deadline); [Greedy_fallback] is
    {!Baseline.greedy} when B&B had no incumbent at all.  Degraded
    repairs still satisfy every constraint — they just may change more
    cells than necessary. *)
type provenance = Exact | Incumbent | Greedy_fallback

let provenance_to_string = function
  | Exact -> "exact"
  | Incumbent -> "incumbent"
  | Greedy_fallback -> "greedy_fallback"

type result =
  | Consistent                       (** D ⊨ AC already (given the forced pins) *)
  | Repaired of Repair.t * provenance * stats
  | No_repair of stats               (** no repair exists (within the M bound) *)
  | Node_budget_exceeded of stats    (** budget exhausted and no fallback *)
  | Cancelled of stats               (** cancelled and no fallback *)

(* Policy: a component may be re-solved with a 64x larger big-M at most
   this many times in total, whether the retry is triggered by an optimum
   pressing against M (the bound may have clipped a cheaper repair) or by
   infeasibility (which may be an artifact of the clipping rather than a
   real contradiction).  Both paths share one cap on purpose: the retry
   budget measures how much we spend second-guessing the practical M, not
   which symptom it produced.  Beyond the cap we accept the answer under
   the current bound.  Pinned by a test. *)
let max_big_m_retries = 3

(** How to map over the connected components of one solve.  The default
    {!sequential} is [List.map]; the server passes a domain-pool-backed
    parallel map so independent components solve concurrently.  The
    function must preserve list order and must not drop elements. *)
type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential = { map = (fun f xs -> List.map f xs) }

(* ------------------------------------------------------------------ *)
(* Connected components of the ground system.                          *)
(* ------------------------------------------------------------------ *)

module Cell_map = Map.Make (struct
  type t = Ground.cell
  let compare = compare
end)

(** Partition rows into connected components (shared-cell adjacency).
    Rows with no cells (constant rows) each form their own component. *)
let components (rows : Ground.row list) : Ground.row list list =
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let first_row_of_cell = ref Cell_map.empty in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (_, cell) ->
          match Cell_map.find_opt cell !first_row_of_cell with
          | Some j -> union i j
          | None -> first_row_of_cell := Cell_map.add cell i !first_row_of_cell)
        r.Ground.terms)
    rows;
  let buckets = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i r ->
      let root = find i in
      match Hashtbl.find_opt buckets root with
      | Some acc -> acc := r :: !acc
      | None ->
        let acc = ref [ r ] in
        Hashtbl.add buckets root acc;
        order := root :: !order)
    rows;
  List.rev_map (fun root -> List.rev !(Hashtbl.find buckets root)) !order

(* ------------------------------------------------------------------ *)
(* Shared pieces of the solve paths                                    *)
(* ------------------------------------------------------------------ *)

(* Pins restricted to the cells a row set actually constrains. *)
let restrict_forced forced rows =
  List.filter
    (fun (cell, _) ->
      List.exists
        (fun r -> List.exists (fun (_, c) -> c = cell) r.Ground.terms)
        rows)
    forced

(* D (restricted to [rows]) already satisfies the system and the pins. *)
let rows_satisfied db rows forced =
  List.for_all (Ground.row_satisfied (Ground.db_valuation db)) rows
  && List.for_all
       (fun (cell, v) -> Rat.equal (Ground.db_valuation db cell) v)
       forced

(* Per-component solver effort, aggregated into {!stats}.  Deliberately
   immutable (phases as a snapshot list, not a live [Obs.Phases.t]) so the
   shared [no_work] value and cached outcomes cannot alias mutable state. *)
type work = {
  wk_nodes : int;
  wk_pivots : int;
  wk_dual : int;
  wk_warm : int;
  wk_fallbacks : int;
  wk_phases : (string * (int * float)) list;
  wk_gap : float option;           (* final gap of the last attempt *)
  wk_gap_tl : (float * float) list; (* gap timeline, attempts concatenated *)
}

let no_work =
  { wk_nodes = 0; wk_pivots = 0; wk_dual = 0; wk_warm = 0; wk_fallbacks = 0;
    wk_phases = []; wk_gap = None; wk_gap_tl = [] }

let add_phase_lists a b =
  List.fold_left
    (fun acc (name, (c, t)) ->
      if List.mem_assoc name acc then
        List.map
          (fun (n, (c0, t0)) ->
            if String.equal n name then (n, (c0 + c, t0 +. t)) else (n, (c0, t0)))
          acc
      else acc @ [ (name, (c, t)) ])
    a b

let add_work a b =
  { wk_nodes = a.wk_nodes + b.wk_nodes;
    wk_pivots = a.wk_pivots + b.wk_pivots;
    wk_dual = a.wk_dual + b.wk_dual;
    wk_warm = a.wk_warm + b.wk_warm;
    wk_fallbacks = a.wk_fallbacks + b.wk_fallbacks;
    wk_phases = add_phase_lists a.wk_phases b.wk_phases;
    (* The later attempt's convergence wins (a big-M retry supersedes the
       clipped search); timelines concatenate so the retry history stays
       visible. *)
    wk_gap = (match b.wk_gap with Some _ -> b.wk_gap | None -> a.wk_gap);
    wk_gap_tl = a.wk_gap_tl @ b.wk_gap_tl }

let work_of (o : M.outcome) =
  { wk_nodes = o.M.nodes_explored; wk_pivots = o.M.simplex_pivots;
    wk_dual = o.M.dual_pivots; wk_warm = o.M.warm_starts;
    wk_fallbacks = o.M.warm_fallbacks;
    wk_phases = Obs.Phases.to_list o.M.phases;
    wk_gap = o.M.final_gap; wk_gap_tl = o.M.gap_timeline }

(** Result of one component's (possibly retried) solve. *)
type comp_solved =
  (Repair.t * provenance * Encode.t * work * int * bool,
   [ `Infeasible of Encode.t * work * int
   | `Budget of Encode.t * work * int
   | `Cancelled of Encode.t * work * int ])
  Stdlib.result

(** A process-wide cache hit: the component's proven answer (its
    card-minimal repair, or infeasibility) was computed by an earlier
    request on a structurally identical instance.  Carries enough to feed
    the report (instance size, retries) but no {!Encode.t} — the hit did
    not build one. *)
type cached_hit = {
  ch_answer : [ `Repaired of Repair.t | `Infeasible ];
  ch_vars : int;
  ch_milp_rows : int;
  ch_retries : int;
}

type comp_outcome = [ `Satisfied | `Solved of comp_solved | `Cached of cached_hit ]

(* ------------------------------------------------------------------ *)
(* Cross-request solve cache                                           *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  (** Process-wide bounded LRU memo of per-component solves (contract in
      the interface).  The key is a canonical content hash of the instance
      alone — ground rows over dense cell indices, cell values and
      integer-domain flags, pins — so structurally identical sub-instances
      from different documents share entries; a hit is translated back
      through the live component's cell order.  Only proven answers are
      stored, so the node budget is not in the key.  Disabled by default
      ([budget = 0]); the server enables it via [--solve-cache-mb]. *)

  module R = Dart_relational

  let m_hits = Obs.Metrics.counter "repair.cache_hits"
  let m_misses = Obs.Metrics.counter "repair.cache_misses"
  let m_evictions = Obs.Metrics.counter "repair.cache_evictions"
  let g_entries = Obs.Metrics.gauge "repair.cache_entries"
  let g_bytes = Obs.Metrics.gauge "repair.cache_bytes"

  (* Repairs are stored field-agnostically as dense-cell-index changes and
     re-materialized against the live database at hit time. *)
  type stored =
    | S_repaired of (int * Rat.t) list * int * int * int
        (** changes, vars, milp rows, retries *)
    | S_infeasible of int * int * int  (** vars, milp rows, retries *)

  type entry = { value : stored; cost : int; mutable used : int }

  let mu = Mutex.create ()
  let tbl : (string, entry) Hashtbl.t = Hashtbl.create 64
  let budget = ref 0 (* bytes; 0 = disabled *)
  let used_bytes = ref 0
  let clock = ref 0

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let publish () =
    Obs.Metrics.set g_entries (float_of_int (Hashtbl.length tbl));
    Obs.Metrics.set g_bytes (float_of_int !used_bytes)

  let entries () = locked (fun () -> Hashtbl.length tbl)
  let bytes_used () = locked (fun () -> !used_bytes)
  let budget_bytes () = locked (fun () -> !budget)

  let evict_to limit =
    (* Scan-for-oldest under the lock: the table is small (hundreds of
       entries at typical budgets) and eviction is off the hit path. *)
    while !used_bytes > limit && Hashtbl.length tbl > 0 do
      let victim = ref None in
      Hashtbl.iter
        (fun k e ->
          match !victim with
          | Some (_, e') when e'.used <= e.used -> ()
          | _ -> victim := Some (k, e))
        tbl;
      match !victim with
      | None -> ()
      | Some (k, e) ->
        Hashtbl.remove tbl k;
        used_bytes := !used_bytes - e.cost;
        Obs.Metrics.incr m_evictions
    done

  let clear () =
    locked (fun () ->
        Hashtbl.reset tbl;
        used_bytes := 0;
        publish ())

  let set_budget_bytes n =
    locked (fun () ->
        budget := max 0 n;
        if !budget = 0 then begin
          Hashtbl.reset tbl;
          used_bytes := 0
        end
        else evict_to !budget;
        publish ())

  (* The canonical form of one component instance.  Cells are named by
     their first-appearance index; pins are sorted by that index so pin
     order cannot split otherwise-identical keys. *)
  let canonical db rows forced =
    let cells = Array.of_list (Ground.cells rows) in
    let idx = Hashtbl.create (Array.length cells * 2) in
    Array.iteri (fun i c -> Hashtbl.replace idx c i) cells;
    let buf = Buffer.create 512 in
    Array.iter
      (fun c ->
        Buffer.add_char buf (if Encode.cell_is_integer db c then 'z' else 'r');
        Buffer.add_string buf (Rat.to_string (Ground.db_valuation db c));
        Buffer.add_char buf ';')
      cells;
    List.iter
      (fun (r : Ground.row) ->
        Buffer.add_char buf
          (match r.op with
           | Agg_constraint.Le -> '<'
           | Agg_constraint.Ge -> '>'
           | Agg_constraint.Eq -> '=');
        Buffer.add_string buf (Rat.to_string r.rhs);
        List.iter
          (fun (coef, c) ->
            Buffer.add_char buf ',';
            Buffer.add_string buf (Rat.to_string coef);
            Buffer.add_char buf '@';
            Buffer.add_string buf (string_of_int (Hashtbl.find idx c)))
          r.terms;
        Buffer.add_char buf ';')
      rows;
    let pins =
      List.sort compare
        (List.map (fun (c, v) -> (Hashtbl.find idx c, v)) forced)
    in
    List.iter
      (fun (i, v) ->
        Buffer.add_char buf '!';
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf '=';
        Buffer.add_string buf (Rat.to_string v))
      pins;
    (Digest.to_hex (Digest.string (Buffer.contents buf)), cells, idx)

  let updates_of_changes db (cells : Ground.cell array) changes : Repair.t =
    List.map
      (fun (i, zv) ->
        let tid, attr = cells.(i) in
        let tu = R.Database.find db tid in
        let rs = R.Schema.relation (R.Database.schema db) (R.Tuple.relation tu) in
        let dom = R.Schema.attr_domain rs attr in
        Update.make ~tid ~attr ~new_value:(R.Value.of_rat dom zv))
      changes

  (** Cache-side view of one component solve attempt.  [`Disabled] when
      the budget is zero; [`Miss ctx] hands back the context needed to
      {!remember} the eventual answer. *)
  type consulted =
    [ `Disabled
    | `Hit of cached_hit
    | `Miss of string * (Ground.cell, int) Hashtbl.t ]

  let consult db rows forced : consulted =
    if locked (fun () -> !budget = 0) then `Disabled
    else
      let key, cells, idx = canonical db rows forced in
      let found =
        locked (fun () ->
            match Hashtbl.find_opt tbl key with
            | Some e ->
              incr clock;
              e.used <- !clock;
              Some e.value
            | None -> None)
      in
      match found with
      | Some (S_repaired (changes, vars, mrows, retries)) ->
        Obs.Metrics.incr m_hits;
        `Hit
          { ch_answer = `Repaired (updates_of_changes db cells changes);
            ch_vars = vars; ch_milp_rows = mrows; ch_retries = retries }
      | Some (S_infeasible (vars, mrows, retries)) ->
        Obs.Metrics.incr m_hits;
        `Hit
          { ch_answer = `Infeasible; ch_vars = vars; ch_milp_rows = mrows;
            ch_retries = retries }
      | None ->
        Obs.Metrics.incr m_misses;
        `Miss (key, idx)

  (* Rough resident size of an entry: key, per-change index + rational
     text, fixed bookkeeping. *)
  let cost_of key = function
    | S_infeasible _ -> String.length key + 96
    | S_repaired (changes, _, _, _) ->
      List.fold_left
        (fun acc (_, v) -> acc + 24 + String.length (Rat.to_string v))
        (String.length key + 96)
        changes

  let insert key value =
    locked (fun () ->
        if !budget > 0 then begin
          let cost = cost_of key value in
          if cost <= !budget then begin
            (match Hashtbl.find_opt tbl key with
             | Some old ->
               Hashtbl.remove tbl key;
               used_bytes := !used_bytes - old.cost
             | None -> ());
            incr clock;
            Hashtbl.replace tbl key { value; cost; used = !clock };
            used_bytes := !used_bytes + cost;
            evict_to !budget;
            publish ()
          end
        end)

  (** Record a freshly solved component under the key {!consult} missed
      on, if its answer is proven.  An [Infeasible] short of the retry cap
      was cut off by the deadline before a larger big-M could be tried. *)
  let remember (key, idx) (r : comp_solved) =
    let index_of u = Hashtbl.find idx (Update.cell u) in
    match r with
    | Ok (repair, Exact, enc, _, retries, false) ->
      let changes =
        List.map
          (fun u -> (index_of u, R.Value.to_rat u.Update.new_value))
          repair
      in
      insert key
        (S_repaired
           (changes, Encode.num_vars enc, Encode.num_rows enc, retries))
    | Error (`Infeasible (enc, _, retries)) when retries >= max_big_m_retries ->
      insert key
        (S_infeasible (Encode.num_vars enc, Encode.num_rows enc, retries))
    | Ok _ | Error _ -> ()
end

let grow_m m = Rat.mul (Rat.of_int 64) m

(** Solve one component from scratch, retrying with a larger M when the
    solution makes big-M look binding, or when the instance is infeasible
    only because M clipped it. *)
let solve_component ~max_nodes ~cancel ~forced db rows : comp_solved =
  Obs.Metrics.incr m_components;
  let rec attempt (enc : Encode.t) retries acc =
    if retries > 0 then Obs.Metrics.incr m_big_m_retries;
    let outcome =
      M.solve ~max_nodes ~integral_objective:true ~cancel enc.Encode.problem
    in
    Obs.add_attr "milp_vars" (Obs.Int (Encode.num_vars enc));
    Obs.add_attr "milp_rows" (Obs.Int (Encode.num_rows enc));
    let acc = add_work acc (work_of outcome) in
    (* Once the token fired there is no budget for second-guessing M. *)
    let may_retry = retries < max_big_m_retries && not (Cancel.is_cancelled cancel) in
    let retry () =
      let big_m = grow_m enc.Encode.big_m in
      attempt (Encode.build ~cancel ~big_m ~forced db rows) (retries + 1) acc
    in
    match outcome.M.status, outcome.M.assignment with
    | M.Optimal, Some assignment ->
      if Encode.near_big_m enc assignment && may_retry then retry ()
      else
        Ok (Encode.decode db enc assignment, Exact, enc, acc, retries,
            outcome.M.cancelled)
    | M.Feasible, Some assignment ->
      (* Truncated or cancelled search: take the best integral incumbent
         as an anytime answer rather than failing. *)
      Ok (Encode.decode db enc assignment, Incumbent, enc, acc, retries,
          outcome.M.cancelled)
    | M.Infeasible, _ ->
      if may_retry then retry () else Error (`Infeasible (enc, acc, retries))
    | M.Feasible, None ->
      if outcome.M.cancelled then Error (`Cancelled (enc, acc, retries))
      else Error (`Budget (enc, acc, retries))
    | (M.Optimal | M.Unbounded), _ ->
      (* Optimal always carries an assignment; Unbounded cannot happen since
         the objective is a sum of binaries. *)
      Error (`Budget (enc, acc, retries))
  in
  attempt (Encode.build ~cancel ~forced db rows) 0 no_work

(* The degradation ladder's last rung: when exact search could not finish
   (budget or deadline) and no incumbent exists, fall back to the greedy
   baseline — unless the operator pinned cells, which greedy cannot
   honour.  Degraded repairs still satisfy every constraint. *)
let degrade ~forced ~db ~constraints why stats_v =
  let hard_failure () =
    match why with
    | `Budget -> Node_budget_exceeded stats_v
    | `Cancelled -> Cancelled stats_v
  in
  if why = `Cancelled then Obs.Metrics.incr m_cancelled;
  if forced <> [] then hard_failure ()
  else
    match Baseline.greedy db constraints with
    | Some rho ->
      Obs.Metrics.incr m_degraded;
      Repaired (rho, Greedy_fallback, stats_v)
    | None -> hard_failure ()

(* Fold the per-component outcomes in component order: accumulate stats,
   concatenate repairs, and let the first failure decide.  [comp_meta]
   carries each component's (ground rows, cells) in the same order as
   [outcomes], feeding the per-component report. *)
let combine_outcomes ~t0 ~forced ~db ~constraints ~ncomps ~rows ~comp_meta
    (outcomes : comp_outcome list) : result =
  let stats = ref { empty_stats with
                    components = ncomps;
                    ground_rows = List.length rows;
                    cells = List.length (Ground.cells rows) } in
  let reports = ref [] in (* reverse component order *)
  let add_report ~index ~meta ~status ~sizes:(vars, mrows) ~wk ~retries =
    let crows, ccells = meta in
    reports :=
      { cr_component = index; cr_rows = crows; cr_cells = ccells;
        cr_vars = vars; cr_milp_rows = mrows; cr_nodes = wk.wk_nodes;
        cr_pivots = wk.wk_pivots; cr_dual_pivots = wk.wk_dual;
        cr_warm_starts = wk.wk_warm; cr_warm_fallbacks = wk.wk_fallbacks;
        cr_retries = retries; cr_status = status; cr_gap = wk.wk_gap;
        cr_phases = wk.wk_phases; cr_gap_timeline = wk.wk_gap_tl }
      :: !reports
  in
  let add_sizes (vars, mrows) wk retries =
    Obs.Metrics.add m_warm_fallbacks wk.wk_fallbacks;
    stats := { !stats with
               milp_vars = !stats.milp_vars + vars;
               milp_rows = !stats.milp_rows + mrows;
               nodes = !stats.nodes + wk.wk_nodes;
               simplex_pivots = !stats.simplex_pivots + wk.wk_pivots;
               dual_pivots = !stats.dual_pivots + wk.wk_dual;
               warm_starts = !stats.warm_starts + wk.wk_warm;
               warm_fallbacks = !stats.warm_fallbacks + wk.wk_fallbacks;
               m_retries = !stats.m_retries + retries }
  in
  let finish_stats () =
    { !stats with solve_ms = Obs.elapsed_ms ~since:t0;
                  report = List.rev !reports }
  in
  let saw_cancel = ref false in
  let meta_of metas =
    match metas with m :: rest -> (m, rest) | [] -> ((0, 0), [])
  in
  let rec combine acc degraded metas index = function
    | [] ->
      let provenance = if degraded then Incumbent else Exact in
      if degraded then Obs.Metrics.incr m_degraded;
      if !saw_cancel then Obs.Metrics.incr m_cancelled;
      Repaired (List.concat (List.rev acc), provenance, finish_stats ())
    | `Satisfied :: rest ->
      let meta, metas = meta_of metas in
      add_report ~index ~meta ~status:"satisfied" ~sizes:(0, 0) ~wk:no_work
        ~retries:0;
      combine acc degraded metas (index + 1) rest
    | `Cached hit :: rest ->
      (* A process-wide cache hit: the answer is byte-identical to
         re-solving, with zero work. *)
      let meta, metas = meta_of metas in
      let sizes = (hit.ch_vars, hit.ch_milp_rows) in
      add_sizes sizes no_work hit.ch_retries;
      (match hit.ch_answer with
       | `Repaired repair ->
         add_report ~index ~meta ~status:(provenance_to_string Exact) ~sizes
           ~wk:no_work ~retries:hit.ch_retries;
         combine (repair :: acc) degraded metas (index + 1) rest
       | `Infeasible ->
         add_report ~index ~meta ~status:"infeasible" ~sizes ~wk:no_work
           ~retries:hit.ch_retries;
         No_repair (finish_stats ()))
    | `Solved outcome :: rest ->
      let meta, metas = meta_of metas in
      let sizes_of enc = (Encode.num_vars enc, Encode.num_rows enc) in
      (match outcome with
       | Ok (repair, prov, enc, wk, retries, was_cancelled) ->
         add_sizes (sizes_of enc) wk retries;
         add_report ~index ~meta ~status:(provenance_to_string prov)
           ~sizes:(sizes_of enc) ~wk ~retries;
         if was_cancelled then saw_cancel := true;
         combine (repair :: acc) (degraded || prov <> Exact) metas (index + 1)
           rest
       | Error (`Infeasible (enc, wk, retries)) ->
         (* Infeasibility is definitive (within the M bound): no repair
            exists, so there is nothing to degrade to. *)
         add_sizes (sizes_of enc) wk retries;
         add_report ~index ~meta ~status:"infeasible" ~sizes:(sizes_of enc)
           ~wk ~retries;
         No_repair (finish_stats ())
       | Error (`Budget (enc, wk, retries)) ->
         add_sizes (sizes_of enc) wk retries;
         add_report ~index ~meta ~status:"budget" ~sizes:(sizes_of enc) ~wk
           ~retries;
         degrade ~forced ~db ~constraints `Budget (finish_stats ())
       | Error (`Cancelled (enc, wk, retries)) ->
         add_sizes (sizes_of enc) wk retries;
         add_report ~index ~meta ~status:"cancelled" ~sizes:(sizes_of enc) ~wk
           ~retries;
         degrade ~forced ~db ~constraints `Cancelled (finish_stats ()))
  in
  combine [] false comp_meta 0 outcomes

(* ------------------------------------------------------------------ *)
(* One-shot solving                                                    *)
(* ------------------------------------------------------------------ *)

(** Compute a card-minimal repair for [db] w.r.t. [constraints].

    [forced] pins cells to exact values (operator instructions).
    [decompose:false] disables the connected-component split (ablation).
    [mapper] runs the per-component solves (parallel when pool-backed).
    [cancel] aborts the solve cooperatively; on cancellation or budget
    exhaustion the result degrades (incumbent, then greedy) instead of
    failing outright — see {!provenance}.
    Every component is solved even when one turns out infeasible — the
    stats count all the work done — but the result constructor is decided
    by the first failing component in component order, so the outcome is
    independent of the mapper. *)
let card_minimal ?(decompose = true) ?(max_nodes = 2_000_000) ?(forced = [])
    ?(mapper = sequential) ?(cancel = Cancel.none) db
    (constraints : Agg_constraint.t list) : result =
  let t0 = Obs.now_ms () in
  Obs.span "repair.card_minimal" (fun () ->
  try
  let rows = Ground.of_constraints db constraints in
  if rows_satisfied db rows (restrict_forced forced rows) then Consistent
  else begin
    let comps = if decompose then components rows else [ rows ] in
    let comps = List.mapi (fun i comp -> (i, comp)) comps in
    let solve_comp (ci, comp) =
      (* Skip components already satisfied (cheap check avoids a MILP). *)
      let comp_forced = restrict_forced forced comp in
      if rows_satisfied db comp comp_forced then `Satisfied
      else
        match Cache.consult db comp comp_forced with
        | `Hit hit -> `Cached hit
        | (`Disabled | `Miss _) as consulted ->
          `Solved
            (Obs.span "repair.component"
               ~attrs:
                 [ ("component", Obs.Int ci);
                   ("rows", Obs.Int (List.length comp));
                   ("cells", Obs.Int (List.length (Ground.cells comp))) ]
               (fun () ->
                 let r =
                   solve_component ~max_nodes ~cancel ~forced:comp_forced db
                     comp
                 in
                 (match consulted with
                  | `Miss ctx -> Cache.remember ctx r
                  | `Disabled -> ());
                 (match r with
                  | Ok (_, _, _, wk, retries, _)
                  | Error (`Infeasible (_, wk, retries))
                  | Error (`Budget (_, wk, retries))
                  | Error (`Cancelled (_, wk, retries)) ->
                    Obs.add_attr "nodes" (Obs.Int wk.wk_nodes);
                    Obs.add_attr "pivots" (Obs.Int wk.wk_pivots);
                    Obs.add_attr "m_retries" (Obs.Int retries));
                 r))
    in
    let outcomes = mapper.map solve_comp comps in
    let comp_meta =
      List.map
        (fun (_, comp) ->
          (List.length comp, List.length (Ground.cells comp)))
        comps
    in
    combine_outcomes ~t0 ~forced ~db ~constraints ~ncomps:(List.length comps)
      ~rows ~comp_meta outcomes
  end
  with Cancel.Cancelled ->
    (* The token fired outside branch & bound (grounding, encoding, or a
       pooled component job): same ladder, with whatever time was spent. *)
    degrade ~forced ~db ~constraints `Cancelled
      { empty_stats with solve_ms = Obs.elapsed_ms ~since:t0 })

(* ------------------------------------------------------------------ *)
(* Display ordering (§6.3)                                             *)
(* ------------------------------------------------------------------ *)

(** Involvement count of each cell: in how many ground rows its variable
    occurs.  This drives the §6.3 display-order heuristic (most-involved
    first). *)
let involvement rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Ground.row) ->
      List.iter
        (fun (_, cell) ->
          Hashtbl.replace tbl cell (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cell)))
        r.terms)
    rows;
  tbl

(* ------------------------------------------------------------------ *)
(* Solve reports                                                       *)
(* ------------------------------------------------------------------ *)

let result_stats = function
  | Consistent -> None
  | Repaired (_, _, s) | No_repair s | Node_budget_exceeded s | Cancelled s ->
    Some s

let report_gap (s : stats) =
  List.fold_left
    (fun acc c ->
      match (c.cr_gap, acc) with
      | Some g, Some a -> Some (Float.max g a)
      | Some g, None -> Some g
      | None, a -> a)
    None s.report

let report_json (s : stats) : Obs.Json.t =
  let module J = Obs.Json in
  let phases_json l =
    J.Obj
      (List.map
         (fun (n, (c, t)) ->
           (n, J.Obj [ ("count", J.Int c); ("total_us", J.Float t) ]))
         l)
  in
  let timeline_json tl =
    J.List (List.map (fun (t, g) -> J.List [ J.Float t; J.Float g ]) tl)
  in
  let opt_float = function Some f -> J.Float f | None -> J.Null in
  let comp c =
    J.Obj
      [ ("component", J.Int c.cr_component); ("rows", J.Int c.cr_rows);
        ("cells", J.Int c.cr_cells); ("milp_vars", J.Int c.cr_vars);
        ("milp_rows", J.Int c.cr_milp_rows); ("nodes", J.Int c.cr_nodes);
        ("simplex_pivots", J.Int c.cr_pivots);
        ("dual_pivots", J.Int c.cr_dual_pivots);
        ("warm_starts", J.Int c.cr_warm_starts);
        ("warm_fallbacks", J.Int c.cr_warm_fallbacks);
        ("m_retries", J.Int c.cr_retries); ("status", J.Str c.cr_status);
        ("gap", opt_float c.cr_gap); ("phases", phases_json c.cr_phases);
        ("gap_timeline", timeline_json c.cr_gap_timeline) ]
  in
  let total_phases =
    List.fold_left (fun acc c -> add_phase_lists acc c.cr_phases) [] s.report
  in
  J.Obj
    [ ("schema", J.Str "dart-solve-report/1");
      ("totals",
       J.Obj
         [ ("components", J.Int s.components);
           ("milp_vars", J.Int s.milp_vars);
           ("milp_rows", J.Int s.milp_rows); ("nodes", J.Int s.nodes);
           ("simplex_pivots", J.Int s.simplex_pivots);
           ("dual_pivots", J.Int s.dual_pivots);
           ("warm_starts", J.Int s.warm_starts);
           ("warm_fallbacks", J.Int s.warm_fallbacks);
           ("m_retries", J.Int s.m_retries);
           ("ground_rows", J.Int s.ground_rows); ("cells", J.Int s.cells);
           ("solve_ms", J.Float s.solve_ms);
           ("gap", opt_float (report_gap s)) ]);
      ("phases", phases_json total_phases);
      ("components", J.List (List.map comp s.report)) ]

(** Order a repair's updates for display: updates on cells involved in more
    ground constraints come first (§6.3). Ties break on cell identity for
    determinism. *)
let display_order rows (rho : Repair.t) : Repair.t =
  let inv = involvement rows in
  let count u = Option.value ~default:0 (Hashtbl.find_opt inv (Update.cell u)) in
  List.stable_sort
    (fun u1 u2 ->
      match compare (count u2) (count u1) with
      | 0 -> compare (Update.cell u1) (Update.cell u2)
      | c -> c)
    rho
