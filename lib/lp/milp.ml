(** Mixed-integer linear programming by branch & bound on the simplex
    relaxation.

    Nodes are explored depth-first; at each node the variable whose
    relaxation value is most fractional (among those flagged integral) is
    branched on, taking the branch nearest the fractional value first so
    that incumbents appear early.  With [integral_objective:true] (the case
    for DART's card-minimality objective, which is a sum of binaries) the
    bound test is sharpened to [ceil(relaxation) >= incumbent].

    The search passes {!Simplex.Make.node}s down: the root is a cold
    solve, and each child is its parent node plus one branching row
    ([x <= floor] or [x >= ceil], {!Simplex.Make.branch}), re-solved warm
    from the parent's optimal basis — a short dual-simplex phase instead
    of two cold phases.  A stalled dual phase falls back to a cold solve
    (counted in [warm_fallbacks]), so warm starts never change the answer.

    The tests compare this search against the cold depth-first dense
    tableau B&B in [test/lp_oracle.ml]. *)

module Obs = Dart_obs.Obs
module Cancel = Dart_resilience.Cancel

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
            relaxation (simplex ["phase1"]/["phase2"]/["dual"] and
            ["setup"], and the kernels ["factor"]/["ftran"]/["btran"]/
            ["price"]) *)
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
      ?(cancel = Cancel.none) (p : P.t)
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
       every relaxation, and the gap-over-time series.
       All of it is owned data (no sink required), so a caller asking for a
       solve report gets one even with observability off. *)
    let t0 = Obs.now_us () in
    let phases = Obs.Phases.create () in
    let gap_tl = Obs.Timeline.create () in
    let root_bound = ref None in   (* float; integrality-sharpened *)
    let rel_gap inc_f =
      match !root_bound with
      | None -> None
      | Some b ->
        let g = if minimize then inc_f -. b else b -. inc_f in
        Some (Float.max 0.0 (g /. Float.max 1.0 (Float.abs inc_f)))
    in
    (* A node's relaxation: the root cold, a child warm from [parent]. *)
    let relax parent =
      let w =
        match parent with
        | None -> S.solve_node ~cancel p
        | Some (node, row) -> S.branch ~cancel node row
      in
      pivots := !pivots + w.S.stats.S.pivots;
      dual_pivots := !dual_pivots + w.S.stats.S.dual_pivots;
      Obs.Phases.merge_into ~dst:phases w.S.stats.S.phases;
      if w.S.warm_used then incr warm_starts;
      if w.S.fell_back then incr warm_fallbacks;
      (w.S.result, w.S.node)
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
    let rec explore parent depth =
      if !nodes >= max_nodes then truncated := true
      else begin
        (* Node-entry cancellation point; {!Simplex} also polls inside
           long relaxations.  Raising here unwinds the whole DFS while
           the incumbent ref survives for anytime degradation. *)
        Cancel.check cancel;
        incr nodes;
        Obs.Metrics.incr m_nodes;
        if Obs.enabled () then
          Obs.log Debug "milp.node" ~attrs:[ ("depth", Obs.Int depth) ];
        match relax parent with
        | S.Infeasible, _ ->
          Obs.Metrics.incr m_prune_infeasible;
          if depth = 0 then root_infeasible := true
        | S.Unbounded, _ ->
          (* An unbounded relaxation at the root means the MILP itself may be
             unbounded or infeasible; we report unbounded conservatively. *)
          Obs.Metrics.incr m_prune_unbounded;
          any_relaxation_unbounded := true
        | S.Optimal { objective; assignment }, node ->
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
          (match Option.bind !incumbent (fun (o, _) -> rel_gap (F.to_float o)) with
           | Some g ->
             Obs.Timeline.record gap_tl
               ~elapsed_us:(Float.max 0.0 (Obs.now_us () -. t0))
               ~force:!improved g
           | None -> ());
          (match frac with
           | None -> ()
           | Some (v, x, _) ->
             (* An optimal relaxation always comes with its node. *)
             let node = Option.get node in
             let branch row = explore (Some (node, row)) (depth + 1) in
             let down () = branch (S.At_most (v, F.floor x)) in
             let up () = branch (S.At_least (v, F.ceil x)) in
             (* Explore the branch nearest the fractional value first. *)
             let frac = F.sub x (F.floor x) in
             if F.compare frac (F.sub F.one frac) <= 0 then begin down (); up () end
             else begin up (); down () end)
      end
    in
    let cancelled = ref false in
    (try explore None 0
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
        phases;
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
