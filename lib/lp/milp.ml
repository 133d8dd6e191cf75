(** Mixed-integer linear programming by branch & bound on the simplex
    relaxation.

    Nodes are explored depth-first; at each node the variable whose
    relaxation value is most fractional (among those flagged integral) is
    branched on, taking the branch nearest the fractional value first so
    that incumbents appear early.  With [integral_objective:true] (the case
    for DART's card-minimality objective, which is a sum of binaries) the
    bound test is sharpened to [ceil(relaxation) >= incumbent].

    Branching is expressed as appended rows ([x <= floor] / [x >= ceil]) on
    one mutable working problem, pushed before recursing into a child and
    popped on the way out.  Appended rows leave the parent's columns and
    rows untouched, so each child re-solves warm from its parent's optimal
    basis ({!Simplex.Make.solve_warm}): a short dual-simplex phase instead
    of two cold phases.  A stalled dual phase falls back to a cold solve
    (counted in [warm_fallbacks]), so warm starts never change the answer.

    The tests compare this search against the cold depth-first dense
    tableau B&B in [test/lp_oracle.ml]. *)

module Obs = Dart_obs.Obs
module Cancel = Dart_resilience.Cancel

(** One sampled branch-and-bound node, in float space (converted with
    [F.to_float] so the log is field-agnostic and cheap to serialize).
    Times are microseconds since the [solve] call started. *)
type node_event = {
  ne_t_us : float;            (** elapsed since solve start *)
  ne_node : int;              (** 1-based node number (exploration order) *)
  ne_depth : int;
  ne_open : int;              (** frontier size, this node excluded *)
  ne_incumbent : float option;(** incumbent objective when the node closed *)
  ne_bound : float;           (** this node's relaxation objective *)
  ne_gap : float option;      (** relative gap vs the root bound, when an
                                  incumbent exists *)
}

module Make (F : Field.S) = struct
  module P = Lp_problem.Make (F)
  module S = Simplex.Make (F)

  type status =
    | Optimal      (** incumbent proved optimal *)
    | Feasible     (** search truncated (node limit or cancellation);
                       incumbent best-so-far *)
    | Infeasible
    | Unbounded

  type outcome = {
    status : status;
    objective : F.t option;
    assignment : F.t array option;
    nodes_explored : int;
    simplex_pivots : int;  (** pivot work summed over all node relaxations *)
    dual_pivots : int;     (** of which dual pivots in warm restarts *)
    warm_starts : int;     (** nodes whose relaxation reused the parent basis *)
    warm_fallbacks : int;  (** nodes that fell back to a cold solve *)
    cancelled : bool;      (** the search was aborted by a cancellation token;
                               [status]/[assignment] reflect the best incumbent
                               found before the abort *)
    phases : Obs.Phases.t;
        (** exclusive wall-clock attribution summed over every node
            relaxation (simplex ["phase1"]/["phase2"]/["dual"]/["snapshot"]
            and ["setup"], and the kernels
            ["factor"]/["ftran"]/["btran"]/["price"]) *)
    node_log : node_event list;
        (** bounded, decimated sample of the search (exploration order);
            incumbent-improving nodes are always offered with [force] so
            the convergence staircase survives decimation *)
    gap_timeline : (float * float) list;
        (** [(elapsed_us, relative gap)] — how the incumbent closed on the
            root bound over time.  Non-empty iff an incumbent was found.
            The last point is the final gap: [0.0] when proved optimal,
            the gap-at-abort when truncated or cancelled. *)
    root_bound : float option;
        (** the root relaxation objective (sharpened by integrality when
            [integral_objective]), the denominator-side bound of the gap *)
    final_gap : float option;
        (** relative gap at exit — [0.0] for a proved optimum, positive for
            a truncated/cancelled search with an incumbent, [None] with no
            incumbent *)
  }

  let m_nodes = Obs.Metrics.counter "milp.nodes"
  let m_incumbents = Obs.Metrics.counter "milp.incumbents"
  let m_prune_bound = Obs.Metrics.counter "milp.prune.bound"
  let m_prune_infeasible = Obs.Metrics.counter "milp.prune.infeasible"
  let m_prune_unbounded = Obs.Metrics.counter "milp.prune.unbounded"

  let min_compare a b = if F.compare a b <= 0 then a else b

  let solve ?(max_nodes = 1_000_000) ?(integral_objective = false)
      ?(cancel = Cancel.none) ?(warm = true) (p : P.t)
      : outcome =
    Obs.span "milp.solve"
      ~attrs:[ ("vars", Obs.Int (P.num_vars p)) ]
      (fun () ->
    let minimize = P.minimize p in
    let integers = P.var_integers p in
    let pivots = ref 0 in
    let dual_pivots = ref 0 in
    let warm_starts = ref 0 in
    let warm_fallbacks = ref 0 in
    (* Convergence instrumentation: per-phase wall-clock merged up from
       every relaxation, a bounded node log, and the gap-over-time series.
       All of it is owned data (no sink required), so a caller asking for a
       solve report gets one even with observability off. *)
    let t0 = Obs.now_us () in
    let phases = Obs.Phases.create () in
    let gap_tl = Obs.Timeline.create () in
    let root_bound = ref None in   (* float; integrality-sharpened *)
    let open_count = ref 1 in      (* frontier size incl. the node in hand *)
    let nl_cap = 256 in
    let nl_buf = ref [] (* newest first *) in
    let nl_n = ref 0 and nl_stride = ref 1 and nl_seen = ref 0 in
    let nl_record ~force ev =
      let admit = force || !nl_seen mod !nl_stride = 0 in
      incr nl_seen;
      if admit then begin
        if !nl_n >= nl_cap then begin
          (* Same deterministic decimation as {!Obs.Timeline}: drop every
             other retained event (keeping the oldest of each pair) and
             double the admission stride. *)
          let kept = List.filteri (fun i _ -> i mod 2 = 0) (List.rev !nl_buf) in
          nl_buf := List.rev kept;
          nl_n := List.length kept;
          nl_stride := !nl_stride * 2
        end;
        nl_buf := ev :: !nl_buf;
        incr nl_n
      end
    in
    let rel_gap inc_f =
      match !root_bound with
      | None -> None
      | Some b ->
        let g = if minimize then inc_f -. b else b -. inc_f in
        Some (Float.max 0.0 (g /. Float.max 1.0 (Float.abs inc_f)))
    in
    (* One mutable working problem for the whole tree: an O(1) copy, so the
       caller's problem is never disturbed. *)
    let q = P.copy p in
    let relax ~from =
      if warm then begin
        let w = S.solve_warm ~cancel ?from q in
        pivots := !pivots + w.S.stats.S.pivots;
        dual_pivots := !dual_pivots + w.S.stats.S.dual_pivots;
        Obs.Phases.merge_into ~dst:phases w.S.stats.S.phases;
        if w.S.warm_used then incr warm_starts;
        if w.S.fell_back then incr warm_fallbacks;
        (w.S.result, w.S.snapshot)
      end
      else begin
        let result, st = S.solve_stats ~cancel q in
        pivots := !pivots + st.S.pivots;
        Obs.Phases.merge_into ~dst:phases st.S.phases;
        (result, None)
      end
    in
    let incumbent = ref None in (* (objective, assignment) *)
    let better_than_incumbent obj =
      match !incumbent with
      | None -> true
      | Some (best, _) -> if minimize then F.compare obj best < 0 else F.compare obj best > 0
    in
    let bound_prunes obj =
      match !incumbent with
      | None -> false
      | Some (best, _) ->
        let obj = if integral_objective then (if minimize then F.ceil obj else F.floor obj) else obj in
        if minimize then F.compare obj best >= 0 else F.compare obj best <= 0
    in
    let most_fractional assignment =
      let best = ref None in (* (var, value, fractional distance to nearest int) *)
      Array.iteri
        (fun v is_int ->
          if is_int && not (F.is_integer assignment.(v)) then begin
            let x = assignment.(v) in
            let fl = F.floor x in
            let frac = F.sub x fl in
            (* distance to nearest integer = min(frac, 1 - frac) *)
            let d = min_compare frac (F.sub F.one frac) in
            match !best with
            | Some (_, _, bd) when F.compare d bd <= 0 -> ()
            | _ -> best := Some (v, x, d)
          end)
        integers;
      !best
    in
    let nodes = ref 0 in
    let truncated = ref false in
    let any_relaxation_unbounded = ref false in
    let root_infeasible = ref false in
    let rec explore ~from depth =
      if !nodes >= max_nodes then truncated := true
      else begin
        (* Node-entry cancellation point; {!Simplex} also polls inside
           long relaxations.  Raising here unwinds the whole DFS while
           the incumbent ref survives for anytime degradation. *)
        Cancel.check cancel;
        incr nodes;
        open_count := !open_count - 1;
        Obs.Metrics.incr m_nodes;
        if Obs.enabled () then
          Obs.log Debug "milp.node" ~attrs:[ ("depth", Obs.Int depth) ];
        match relax ~from with
        | S.Infeasible, _ ->
          Obs.Metrics.incr m_prune_infeasible;
          if depth = 0 then root_infeasible := true
        | S.Unbounded, _ ->
          (* An unbounded relaxation at the root means the MILP itself may be
             unbounded or infeasible; we report unbounded conservatively. *)
          Obs.Metrics.incr m_prune_unbounded;
          any_relaxation_unbounded := true
        | S.Optimal { objective; assignment }, snap ->
          if depth = 0 then begin
            (* The root relaxation is the global dual bound of the whole
               search (DFS never revisits it); with an integral objective it
               sharpens to the next integer. *)
            let sharp =
              if integral_objective then
                if minimize then F.ceil objective else F.floor objective
              else objective
            in
            root_bound := Some (F.to_float sharp)
          end;
          let pruned = bound_prunes objective in
          let frac = if pruned then None else most_fractional assignment in
          let improved = ref false in
          if pruned then Obs.Metrics.incr m_prune_bound
          else begin
            match frac with
            | None ->
              if better_than_incumbent objective then begin
                incumbent := Some (objective, assignment);
                improved := true;
                Obs.Metrics.incr m_incumbents;
                if Obs.enabled () then
                  Obs.log Debug "milp.incumbent"
                    ~attrs:
                      [ ("objective", Obs.Str (F.to_string objective));
                        ("node", Obs.Int !nodes); ("depth", Obs.Int depth) ]
              end
            | Some _ -> ()
          end;
          let inc_f = Option.map (fun (o, _) -> F.to_float o) !incumbent in
          let gap = Option.bind inc_f rel_gap in
          let el = Float.max 0.0 (Obs.now_us () -. t0) in
          nl_record ~force:!improved
            { ne_t_us = el; ne_node = !nodes; ne_depth = depth;
              ne_open = !open_count; ne_incumbent = inc_f;
              ne_bound = F.to_float objective; ne_gap = gap };
          (match gap with
           | Some g -> Obs.Timeline.record gap_tl ~elapsed_us:el ~force:!improved g
           | None -> ());
          (match frac with
           | None -> ()
           | Some (v, x, _) ->
             let fl = F.floor x and ce = F.ceil x in
             (* Push the branching row, recurse, pop it on the way out —
                exception-safe so cancellation unwinds cleanly and the
                working problem stays prefix-compatible with every live
                ancestor snapshot. *)
             let branch op rhs =
               P.add_constraint ~label:"branch" q [ (F.one, v) ] op rhs;
               Fun.protect
                 ~finally:(fun () -> P.pop_constraint q)
                 (fun () -> explore ~from:snap (depth + 1))
             in
             let down () = branch Lp_problem.Le fl in
             let up () = branch Lp_problem.Ge ce in
             open_count := !open_count + 2;
             (* Explore the branch nearest the fractional value first. *)
             let frac = F.sub x fl in
             if F.compare frac (F.sub F.one frac) <= 0 then begin down (); up () end
             else begin up (); down () end)
      end
    in
    let cancelled = ref false in
    (try explore ~from:None 0
     with Cancel.Cancelled -> cancelled := true);
    Obs.add_attr "nodes" (Obs.Int !nodes);
    Obs.add_attr "pivots" (Obs.Int !pivots);
    if !cancelled then Obs.add_attr "cancelled" (Obs.Bool true);
    let finish status objective assignment =
      let final_gap =
        match status, Option.map (fun (o, _) -> F.to_float o) !incumbent with
        | Optimal, Some _ ->
          (* Proved by exhausting the tree, whatever the root bound says. *)
          Some 0.0
        | _, Some inc_f -> rel_gap inc_f
        | _, None -> None
      in
      (match final_gap with
       | Some g ->
         (* Close the series with the gap-at-exit (gap-at-abort for a
            truncated or cancelled search). *)
         Obs.Timeline.record gap_tl ~force:true g
       | None -> ());
      { status; objective; assignment; nodes_explored = !nodes;
        simplex_pivots = !pivots; dual_pivots = !dual_pivots;
        warm_starts = !warm_starts; warm_fallbacks = !warm_fallbacks;
        cancelled = !cancelled;
        phases; node_log = List.rev !nl_buf;
        gap_timeline = Obs.Timeline.points gap_tl;
        root_bound = !root_bound; final_gap }
    in
    match !incumbent with
    | Some (objective, assignment) ->
      finish
        (if !truncated || !cancelled then Feasible else Optimal)
        (Some objective) (Some assignment)
    | None ->
      let status =
        if !any_relaxation_unbounded then Unbounded
        (* A cancelled search without an incumbent proved nothing: report
           Feasible-unknown, never Infeasible. *)
        else if !truncated || !cancelled then Feasible
        else Infeasible
      in
      finish status None None)
end
