(** Revised simplex over an arbitrary ordered field, with warm restarts.

    Constraint columns live in a {!Sparse_mat} (CSC), the basis is
    factorized as LU in product form by {!Basis_lu} (an eta file with
    Markowitz-style pivot selection, refactorized every K update etas or
    when the residual ‖B·x_B − b‖ drifts), pricing is devex over
    partial-pricing column blocks with an automatic fallback to Bland's
    rule once a stall/cycling heuristic trips (so anti-cycling stays
    guaranteed), and each iteration costs O(nnz) instead of O(m·n).

    Around that core: a pluggable float/rational field, cooperative
    cancellation polling, per-phase wall-clock attribution, and the
    branch & bound node as the unit of warm restart.  An optimal solve
    returns a {!Make.node} (its problem, standard form and final basis);
    {!Make.branch} builds a child from it and one [x_v <= b] / [x_v >= b]
    row, by appending that row and its slack to the parent's standard
    form and repairing primal feasibility with a bounded dual-simplex
    phase.  A dual phase that stalls or loses the factorization falls
    back to a cold solve of the child's problem — a warm restart can
    cost time but never correctness.  A cold solve whose factorization
    loses the basis raises {!Make.Numerical_trouble} or
    {!Basis_lu.Make.Singular}; only an inexact field can: exact rationals
    never drift.  The tests compare this core against the dense tableau
    oracle in [test/lp_oracle.ml]. *)

module Obs = Dart_obs.Obs
module Cancel = Dart_resilience.Cancel

(** Simplex policy knobs, shared across all field instantiations.
    Mutable so tests and ablations can pin behaviours (e.g. a negative
    [drift_tol] forces a refactorization at every drift check; a zero
    [stall_threshold] trips the Bland fallback on the first degenerate
    pivot). *)
type tuning = {
  mutable refactor_every : int;
      (** refactorize after this many product-form update etas *)
  mutable drift_check_every : int;
      (** iterations between ‖B·x_B − b‖ residual checks *)
  mutable drift_tol : float;
      (** relative residual above which a drift check refactorizes *)
  mutable stall_threshold : int;
      (** consecutive degenerate pivots before devex falls back to Bland *)
  mutable partial_block : int;
      (** column-block width for partial pricing *)
}

let tuning =
  { refactor_every = 64; drift_check_every = 16; drift_tol = 1e-6;
    stall_threshold = 20; partial_block = 128 }

(* Residual (relative) beyond which a *fresh* factorization is declared
   numerically hopeless: the solve raises [Numerical_trouble]. *)
let trouble_tol = 1e-3

module Make (F : Field.S) = struct
  module P = Lp_problem.Make (F)
  module Lu = Basis_lu.Make (F)

  type result =
    | Optimal of { objective : F.t; assignment : F.t array }
    | Infeasible
    | Unbounded

  (** Effort counters for one [solve] call (satellite of the dart_obs PR:
      solver work must be measurable, not silent).  [phases] attributes the
      wall-clock time of the same call across the outer phases ["phase1"],
      ["phase2"] and ["dual"], the inner kernels ["factor"], ["ftran"],
      ["btran"] and ["price"], and ["setup"] (the rest: standard-form
      assembly, solution decoding),
      so a profile can say not just how many pivots were spent but
      {e where} the microseconds went.  Phase times are exclusive: an
      outer phase's share excludes the phases timed inside it, so the
      shares add up to the solve's wall clock. *)
  type stats = {
    mutable pivots : int;         (** total pivot operations, all phases *)
    mutable phase1_pivots : int;  (** pivots spent reaching feasibility *)
    mutable phase2_pivots : int;  (** pivots spent optimizing *)
    mutable dual_pivots : int;    (** pivots spent repairing primal
                                      feasibility after a warm restart *)
    mutable refactorizations : int; (** basis refactorizations *)
    mutable bland_fallbacks : int;  (** devex→Bland anti-cycling trips *)
    mutable eta_peak : int;         (** peak eta-file length *)
    mutable factor_nnz : int;       (** off-pivot nnz of the last
                                        refactorization (fill-in gauge) *)
    phases : Obs.Phases.t;        (** per-phase wall-clock attribution *)
  }

  let fresh_stats () =
    { pivots = 0; phase1_pivots = 0; phase2_pivots = 0; dual_pivots = 0;
      refactorizations = 0; bland_fallbacks = 0; eta_peak = 0; factor_nnz = 0;
      phases = Obs.Phases.create () }

  let phase_phase1 = "phase1"
  let phase_phase2 = "phase2"
  let phase_dual = "dual"
  let phase_factor = "factor"
  let phase_ftran = "ftran"
  let phase_btran = "btran"
  let phase_price = "price"
  let phase_setup = "setup"

  let m_solves = Obs.Metrics.counter "lp.simplex.solves"
  let m_pivots = Obs.Metrics.counter "lp.simplex.pivots"
  let m_warm_starts = Obs.Metrics.counter "lp.simplex.warm_starts"
  let m_dual_pivots = Obs.Metrics.counter "lp.simplex.dual_pivots"
  let m_refactorizations = Obs.Metrics.counter "lp.simplex.refactorizations"
  let m_bland_fallbacks = Obs.Metrics.counter "lp.simplex.bland_fallbacks"

  (* Phase-time histograms (milliseconds, one observation per solve that
     ran the phase).  These flow through [Obs.Metrics.snapshot] and the
     Prometheus exposition unchanged, so the server's existing stats
     endpoints pick them up without new plumbing. *)
  let h_phase1_ms = Obs.Metrics.histogram "lp.simplex.phase1_ms"
  let h_phase2_ms = Obs.Metrics.histogram "lp.simplex.phase2_ms"
  let h_dual_ms = Obs.Metrics.histogram "lp.simplex.dual_ms"
  let h_factor_ms = Obs.Metrics.histogram "lp.simplex.factor_ms"
  let h_ftran_ms = Obs.Metrics.histogram "lp.simplex.ftran_ms"
  let h_btran_ms = Obs.Metrics.histogram "lp.simplex.btran_ms"
  let h_price_ms = Obs.Metrics.histogram "lp.simplex.price_ms"
  let h_eta_len = Obs.Metrics.histogram "lp.simplex.eta_len"

  let observe_phase_histograms (st : stats) =
    List.iter
      (fun (name, h) ->
        if Obs.Phases.count st.phases name > 0 then
          Obs.Metrics.observe h (Obs.Phases.total_us st.phases name /. 1000.0))
      [ (phase_phase1, h_phase1_ms); (phase_phase2, h_phase2_ms);
        (phase_dual, h_dual_ms);
        (phase_factor, h_factor_ms); (phase_ftran, h_ftran_ms);
        (phase_btran, h_btran_ms); (phase_price, h_price_ms) ];
    if st.eta_peak > 0 then Obs.Metrics.observe h_eta_len (float_of_int st.eta_peak)

  (* How an original variable is represented over the non-negative standard
     variables. *)
  type encoding =
    | Shifted of int * F.t        (* x = u + lo *)
    | Reflected of int * F.t      (* x = hi - u *)
    | Split of int * int          (* x = u_pos - u_neg *)

  (** A branching row on one original variable: [x_v <= b] or
      [x_v >= b].  Only inequalities: an equality row has no slack to
      make basic. *)
  type bound_row = At_most of int * F.t | At_least of int * F.t

  (** A branch & bound node: what an optimal solve leaves for its
      children.  It holds the problem it solved, its standard form (the
      variable encodings, the row terms over standard columns and the
      rhs, and which columns are artificial) and its final basis with the
      basic values and reduced costs.  A child's standard form is this
      one plus its branch row, so a node is built only from its parent
      ({!branch}) or by a cold solve ({!solve_node}). *)
  type node = {
    n_problem : P.t;
    n_encodings : encoding array;
    n_rows : (int * F.t) list array;  (* row slot -> (column, coef) terms *)
    n_rhs : F.t array;
    n_is_artificial : bool array;     (* one flag per standard column *)
    n_basis : int array;              (* row slot -> basic column *)
    n_xb : F.t array;                 (* basic values by row slot *)
    n_dj : F.t array;                 (* reduced costs *)
  }

  (* Substitute the variable encodings into a term list.
     Returns (std terms, rhs adjustment to subtract). *)
  let encode_terms (encodings : encoding array) terms =
    let adjust = ref F.zero in
    let out = ref [] in
    List.iter
      (fun (c, v) ->
        match encodings.(v) with
        | Shifted (u, lo) ->
          out := (c, u) :: !out;
          adjust := F.add !adjust (F.mul c lo)
        | Reflected (u, hi) ->
          out := (F.neg c, u) :: !out;
          adjust := F.add !adjust (F.mul c hi)
        | Split (up, un) -> out := (c, up) :: (F.neg c, un) :: !out)
      terms;
    (!out, !adjust)

  (* Decode a standard-variable vector back to the original variables and
     recompute the true objective (robust against accumulated constants). *)
  let decode_std (p : P.t) ~(encodings : encoding array) (std : F.t array) =
    let assignment =
      Array.init (P.num_vars p) (fun j ->
          match encodings.(j) with
          | Shifted (u, lo) -> F.add std.(u) lo
          | Reflected (u, hi) -> F.sub hi std.(u)
          | Split (up, un) -> F.sub std.(up) std.(un))
    in
    let objective = P.eval_terms (P.objective p) assignment in
    Optimal { objective; assignment }

  (** Does the node's basis satisfy the warm-start invariants?  Primal:
      every basic value is non-negative.  Dual: every non-artificial
      reduced cost is non-negative.  Both hold after any optimal solve; the
      warm path relies on the dual half.  Exposed for the property tests
      that pin the invariants. *)
  let node_primal_feasible (n : node) =
    Array.for_all (fun x -> F.compare x F.zero >= 0) n.n_xb

  let node_dual_feasible (n : node) =
    let ok = ref true in
    Array.iteri
      (fun j d ->
        if (not n.n_is_artificial.(j)) && F.compare d F.zero < 0 then ok := false)
      n.n_dj;
    !ok

  (* ------------------------------------------------------------------ *)
  (* Standard form                                                       *)
  (* ------------------------------------------------------------------ *)

  (** Standard form: variable encodings over non-negative standard
      variables, and rows as sparse term lists (bound-cap rows first,
      then constraint rows in declaration order).  Nothing
      row-length-dense is allocated here; the solve assembles a CSC
      matrix. *)
  type spec = {
    c_encodings : encoding array;
    c_rows : ((F.t * int) list * F.t) list; (* (terms over std vars incl. slack, rhs) *)
    c_slack_set : bool array;               (* per std column: is a slack *)
    c_nstd : int;
  }

  let build_spec (p : P.t) ~lowers ~uppers : spec =
    let nvars = P.num_vars p in
    let next = ref 0 in
    let fresh () = let v = !next in incr next; v in
    let extra_rows = ref [] in (* upper-bound rows u <= hi - lo *)
    let encodings =
      Array.init nvars (fun j ->
          match lowers.(j), uppers.(j) with
          | Some lo, Some hi ->
            let u = fresh () in
            extra_rows := (u, F.sub hi lo) :: !extra_rows;
            Shifted (u, lo)
          | Some lo, None -> Shifted (fresh (), lo)
          | None, Some hi -> Reflected (fresh (), hi)
          | None, None ->
            let up = fresh () in
            let un = fresh () in
            Split (up, un))
    in
    let rows_spec = ref [] in
    let slack_cols = ref [] in
    let add_row terms op rhs =
      match op with
      | Lp_problem.Eq -> rows_spec := (terms, rhs) :: !rows_spec
      | Lp_problem.Le ->
        let s = fresh () in
        slack_cols := s :: !slack_cols;
        rows_spec := ((F.one, s) :: terms, rhs) :: !rows_spec
      | Lp_problem.Ge ->
        let s = fresh () in
        slack_cols := s :: !slack_cols;
        rows_spec := ((F.neg F.one, s) :: terms, rhs) :: !rows_spec
    in
    List.iter
      (fun (u, cap) -> add_row [ (F.one, u) ] Lp_problem.Le cap)
      (List.rev !extra_rows);
    Array.iter
      (fun (c : P.constr) ->
        let terms, adjust = encode_terms encodings c.terms in
        add_row terms c.op (F.sub c.rhs adjust))
      (P.constraints p);
    let nstd = !next in
    let slack_set = Array.make nstd false in
    List.iter (fun s -> slack_set.(s) <- true) !slack_cols;
    { c_encodings = encodings; c_rows = List.rev !rows_spec;
      c_slack_set = slack_set; c_nstd = nstd }

  (* Phase-2 cost vector over the standard columns (length [ncols]). *)
  let phase2_costs (p : P.t) ~(encodings : encoding array) ~ncols =
    let costs = Array.make ncols F.zero in
    let sense = if P.minimize p then F.one else F.neg F.one in
    List.iter
      (fun (c, v) ->
        let c = F.mul sense c in
        match encodings.(v) with
        | Shifted (u, _) -> costs.(u) <- F.add costs.(u) c
        | Reflected (u, _) -> costs.(u) <- F.sub costs.(u) c
        | Split (up, un) ->
          costs.(up) <- F.add costs.(up) c;
          costs.(un) <- F.sub costs.(un) c)
      (P.objective p);
    costs

  (* ------------------------------------------------------------------ *)
  (* Revised simplex core                                                *)
  (* ------------------------------------------------------------------ *)

  (** Raised when the factorization cannot keep the basis numerically
      coherent (inexact fields only).  A warm restart that hits it falls
      back to a cold solve; a cold solve lets it propagate. *)
  exception Numerical_trouble

  type iterate_outcome = Finished | Unbounded_direction

  type dual_outcome = Primal_feasible | Dual_infeasible_row | Stalled

  (* Poll cancellation every 16 pivots: frequent enough that a deadline
     aborts a long solve within milliseconds; the check itself is a few
     loads. *)
  let cancel_poll_mask = 15

  (* A standard form ready to pivot on: the row terms it was assembled
     from (a child extends them), their CSC matrix and its transpose. *)
  type form = {
    frows : (int * F.t) list array; (* row slot -> (column, coef) terms *)
    fa : F.t Sparse_mat.t;        (* m x ncols, artificial columns included *)
    fat : F.t Sparse_mat.t;       (* transpose of [fa]: column i = row i *)
    fb : F.t array;               (* rhs *)
    fenc : encoding array;
    fncols : int;
    fis_artificial : bool array;
  }

  let make_form ~encodings ~rows ~rhs ~is_artificial =
    let m = Array.length rhs and ncols = Array.length is_artificial in
    let fa =
      Sparse_mat.of_rows ~zero:F.zero ~is_zero:F.is_zero ~add:F.add ~m
        ~n:ncols rows
    in
    { frows = rows; fa; fat = Sparse_mat.transpose ~zero:F.zero fa; fb = rhs;
      fenc = encodings; fncols = ncols; fis_artificial = is_artificial }

  (* Normalize signs, detect slack basics, append artificial columns.
     Returns row term lists ((col, coef), duplicates allowed). *)
  let rows_of_spec (spec : spec) =
    let rows = Array.of_list spec.c_rows in
    let m = Array.length rows in
    let nstd = spec.c_nstd in
    let rhs = Array.make m F.zero in
    let row_terms = Array.make m [] in
    Array.iteri
      (fun i (terms, r) ->
        let neg = F.compare r F.zero < 0 in
        rhs.(i) <- (if neg then F.neg r else r);
        row_terms.(i) <-
          List.map (fun (c, v) -> (v, if neg then F.neg c else c)) terms)
      rows;
    let basis0 = Array.make m (-1) in
    let needs_artificial = ref [] in
    Array.iteri
      (fun i terms ->
        let found = ref (-1) in
        List.iter
          (fun (j, c) ->
            if !found < 0 && j < nstd && spec.c_slack_set.(j) && F.equal c F.one
            then found := j)
          terms;
        if !found >= 0 then basis0.(i) <- !found
        else needs_artificial := i :: !needs_artificial)
      row_terms;
    let needs_artificial = List.rev !needs_artificial in
    let nart = List.length needs_artificial in
    let ncols = nstd + nart in
    List.iteri
      (fun k i ->
        let col = nstd + k in
        row_terms.(i) <- (col, F.one) :: row_terms.(i);
        basis0.(i) <- col)
      needs_artificial;
    (row_terms, rhs, basis0, nart, nstd, ncols)

  type state = {
    form : form;
    sbasis : int array;           (* row slot -> basic column *)
    in_basis : bool array;
    lu : Lu.t;
    beta : F.t array;             (* x_B by row slot *)
    dj : F.t array;               (* reduced costs, maintained incrementally *)
    costs : F.t array;            (* current phase cost vector *)
    weights : float array;        (* devex reference weights *)
    w : F.t array;                (* FTRAN workspace (entering column) *)
    rho : F.t array;              (* BTRAN workspace (pivot row multipliers) *)
    alpha : F.t array;            (* pivot row over all columns *)
    alpha_sup : int array;        (* columns where alpha may be nonzero *)
    alpha_mark : bool array;      (* membership bits for [alpha_sup] *)
    mutable alpha_n : int;        (* live prefix of [alpha_sup] *)
    bnorm : float;                (* |b|inf, residual scale *)
    mutable bland : bool;         (* Bland fallback engaged *)
    mutable stall : int;          (* consecutive degenerate pivots *)
    mutable block : int;          (* partial-pricing cursor *)
    mutable since_drift : int;
    sst : stats;
    scancel : Cancel.t;
  }

  let new_state (form : form) (basis : int array) ~st ~cancel : state =
    let m = Array.length form.fb in
    let n = form.fncols in
    let in_basis = Array.make n false in
    Array.iter (fun c -> if c >= 0 then in_basis.(c) <- true) basis;
    let bnorm =
      Array.fold_left (fun acc x -> Float.max acc (Float.abs (F.to_float x)))
        0.0 form.fb
    in
    { form; sbasis = basis; in_basis; lu = Lu.create ();
      beta = Array.make m F.zero; dj = Array.make n F.zero;
      costs = Array.make n F.zero; weights = Array.make n 1.0;
      w = Array.make m F.zero; rho = Array.make m F.zero;
      alpha = Array.make n F.zero; alpha_sup = Array.make n 0;
      alpha_mark = Array.make n false; alpha_n = 0; bnorm;
      bland = false; stall = 0; block = 0; since_drift = 0;
      sst = st; scancel = cancel }

  (* Full reduced-cost recompute: y = BTRAN(c_B), then d_j = c_j - y·a_j. *)
  let compute_dj (x : state) =
    let m = Array.length x.beta in
    Obs.Phases.time x.sst.phases phase_btran (fun () ->
        for i = 0 to m - 1 do x.rho.(i) <- x.costs.(x.sbasis.(i)) done;
        Lu.btran x.lu x.rho);
    Obs.Phases.time x.sst.phases phase_price (fun () ->
        for j = 0 to x.form.fncols - 1 do
          if x.in_basis.(j) then x.dj.(j) <- F.zero
          else begin
            let acc = ref x.costs.(j) in
            Sparse_mat.iter_col x.form.fa j (fun i v ->
                if not (F.is_zero x.rho.(i)) then
                  acc := F.sub !acc (F.mul v x.rho.(i)));
            x.dj.(j) <- !acc
          end
        done)

  (* Refactorize, recompute x_B and reduced costs, and verify the fresh
     factorization reproduces b (an inexact field that cannot is beyond
     what refactorizing fixes: raise [Numerical_trouble]). *)
  let refactor (x : state) =
    Obs.Phases.time x.sst.phases phase_factor (fun () ->
        Lu.factorize x.lu x.form.fa ~basis:x.sbasis;
        x.sst.refactorizations <- x.sst.refactorizations + 1;
        x.sst.factor_nnz <- Lu.factor_nnz x.lu;
        x.sst.eta_peak <- max x.sst.eta_peak (Lu.eta_count x.lu);
        Obs.Metrics.incr m_refactorizations;
        Array.blit x.form.fb 0 x.beta 0 (Array.length x.beta);
        Lu.ftran x.lu x.beta);
    compute_dj x;
    let resid =
      Lu.residual_inf x.form.fa ~basis:x.sbasis ~rhs:x.form.fb ~xb:x.beta
    in
    if Float.abs (F.to_float resid) > trouble_tol *. (1.0 +. x.bnorm) then
      raise Numerical_trouble

  (* Refactorization policy: every K update etas, or when a periodic
     residual check sees drift beyond tolerance. *)
  let maybe_refactor (x : state) =
    if Lu.update_count x.lu >= max 1 tuning.refactor_every then refactor x
    else begin
      x.since_drift <- x.since_drift + 1;
      if x.since_drift >= max 1 tuning.drift_check_every then begin
        x.since_drift <- 0;
        let resid =
          Lu.residual_inf x.form.fa ~basis:x.sbasis ~rhs:x.form.fb ~xb:x.beta
        in
        if Float.abs (F.to_float resid) > tuning.drift_tol *. (1.0 +. x.bnorm)
        then refactor x
      end
    end

  (* Pricing: devex (max d_j^2 / w_j) over rotating partial-pricing blocks,
     or lowest-index Bland scan once the anti-cycling fallback engaged.
     Eligibility (d_j < 0) is decided by exact field comparison; the devex
     score is a float heuristic only. *)
  let price (x : state) ~allow_artificial =
    Obs.Phases.time x.sst.phases phase_price (fun () ->
        let n = x.form.fncols in
        let eligible j =
          (not x.in_basis.(j))
          && (allow_artificial || not x.form.fis_artificial.(j))
          && F.compare x.dj.(j) F.zero < 0
        in
        if x.bland then begin
          let rec go j =
            if j >= n then None else if eligible j then Some j else go (j + 1)
          in
          go 0
        end
        else begin
          let bs = max 1 tuning.partial_block in
          let nblocks = max 1 ((n + bs - 1) / bs) in
          let best = ref (-1) and best_score = ref 0.0 in
          let scan_block b =
            let lo = b * bs and hi = min n ((b + 1) * bs) in
            for j = lo to hi - 1 do
              if eligible j then begin
                let df = F.to_float x.dj.(j) in
                let score = df *. df /. x.weights.(j) in
                if !best < 0 || score > !best_score then begin
                  best := j;
                  best_score := score
                end
              end
            done
          in
          let rec go off =
            if off >= nblocks then None
            else begin
              let b = (x.block + off) mod nblocks in
              scan_block b;
              if !best >= 0 then begin
                x.block <- b;
                Some !best
              end
              else go (off + 1)
            end
          in
          go 0
        end)

  (* FTRAN the entering column into the workspace. *)
  let ftran_col (x : state) q =
    Obs.Phases.time x.sst.phases phase_ftran (fun () ->
        Array.fill x.w 0 (Array.length x.w) F.zero;
        Sparse_mat.scatter_col x.form.fa q x.w;
        Lu.ftran x.lu x.w)

  (* Primal ratio test over the FTRAN'd column.  Ties: Bland mode prefers
     the smallest basic-variable index (termination); devex mode the
     largest pivot magnitude (stability). *)
  let leaving_row (x : state) =
    let m = Array.length x.beta in
    let best = ref (-1) in
    let best_ratio = ref F.zero in
    for i = 0 to m - 1 do
      let wi = x.w.(i) in
      if F.compare wi F.zero > 0 then begin
        let ratio = F.div x.beta.(i) wi in
        if !best < 0 then begin
          best := i;
          best_ratio := ratio
        end
        else begin
          let c = F.compare ratio !best_ratio in
          if c < 0 then begin
            best := i;
            best_ratio := ratio
          end
          else if c = 0 then
            if x.bland then begin
              if x.sbasis.(i) < x.sbasis.(!best) then best := i
            end
            else if
              Float.abs (F.to_float wi) > Float.abs (F.to_float x.w.(!best))
            then best := i
        end
      end
    done;
    if !best < 0 then None else Some !best

  (* Pivot row r: rho = BTRAN(e_r), then alpha = A^T rho accumulated over
     the transpose rows where rho is nonzero — O(sum of those row lengths)
     instead of O(nnz A).  [alpha_sup] records which columns were touched
     so the pivot-update loops skip the (exactly zero) rest; the previous
     pivot's support is cleared here, keeping the invariant that alpha is
     zero off-support.  Basic columns come out 0/1 for free, which is
     exactly what the incremental d update needs for the leaving
     variable. *)
  let pivot_row (x : state) r =
    let m = Array.length x.rho in
    Obs.Phases.time x.sst.phases phase_btran (fun () ->
        Array.fill x.rho 0 m F.zero;
        x.rho.(r) <- F.one;
        Lu.btran x.lu x.rho);
    Obs.Phases.time x.sst.phases phase_price (fun () ->
        for k = 0 to x.alpha_n - 1 do
          let j = x.alpha_sup.(k) in
          x.alpha.(j) <- F.zero;
          x.alpha_mark.(j) <- false
        done;
        x.alpha_n <- 0;
        let at = x.form.fat in
        for i = 0 to m - 1 do
          let ri = x.rho.(i) in
          if not (F.is_zero ri) then
            Sparse_mat.iter_col at i (fun j v ->
                if not x.alpha_mark.(j) then begin
                  x.alpha_mark.(j) <- true;
                  x.alpha_sup.(x.alpha_n) <- j;
                  x.alpha_n <- x.alpha_n + 1
                end;
                x.alpha.(j) <- F.add x.alpha.(j) (F.mul v ri))
        done)

  (* Apply the pivot (q enters at row r): update x_B and reduced costs
     incrementally off the pivot row, devex weights (Forrest–Goldfarb),
     append the product-form eta, swap the basis header, and feed the
     stall/cycling heuristic. *)
  let apply_pivot (x : state) ~q ~r =
    let aq = x.w.(r) in
    let theta = F.div x.beta.(r) aq in
    let m = Array.length x.beta in
    if not (F.is_zero theta) then
      for i = 0 to m - 1 do
        if i <> r && not (F.is_zero x.w.(i)) then
          x.beta.(i) <- F.sub x.beta.(i) (F.mul theta x.w.(i))
      done;
    x.beta.(r) <- theta;
    let n = x.form.fncols in
    let mult = F.div x.dj.(q) aq in
    if not (F.is_zero mult) then
      for k = 0 to x.alpha_n - 1 do
        let j = x.alpha_sup.(k) in
        if j <> q && not (F.is_zero x.alpha.(j)) then
          x.dj.(j) <- F.sub x.dj.(j) (F.mul mult x.alpha.(j))
      done;
    x.dj.(q) <- F.zero;
    if not x.bland then begin
      let aqf = F.to_float aq in
      if Float.is_finite aqf && aqf <> 0.0 then begin
        let wq = x.weights.(q) in
        let maxw = ref 0.0 in
        for k = 0 to x.alpha_n - 1 do
          let j = x.alpha_sup.(k) in
          if j <> q && not (F.is_zero x.alpha.(j)) then begin
            let a = F.to_float x.alpha.(j) /. aqf in
            let cand = a *. a *. wq in
            if Float.is_finite cand && cand > x.weights.(j) then
              x.weights.(j) <- cand;
            if x.weights.(j) > !maxw then maxw := x.weights.(j)
          end
        done;
        (* Reference-framework reset once weights blow up. *)
        if !maxw > 1e8 then Array.fill x.weights 0 n 1.0
      end
    end;
    Lu.push_eta x.lu ~spike:x.w ~row:r;
    x.sst.eta_peak <- max x.sst.eta_peak (Lu.eta_count x.lu);
    let leaving = x.sbasis.(r) in
    x.in_basis.(leaving) <- false;
    x.in_basis.(q) <- true;
    x.sbasis.(r) <- q;
    if F.is_zero theta then begin
      x.stall <- x.stall + 1;
      if (not x.bland) && x.stall > tuning.stall_threshold then begin
        x.bland <- true;
        x.sst.bland_fallbacks <- x.sst.bland_fallbacks + 1;
        Obs.Metrics.incr m_bland_fallbacks
      end
    end
    else x.stall <- 0

  let rec iterate (x : state) ~allow_artificial ~pivots =
    maybe_refactor x;
    match price x ~allow_artificial with
    | None -> Finished
    | Some q ->
      ftran_col x q;
      (match leaving_row x with
       | None -> Unbounded_direction
       | Some r ->
         pivot_row x r;
         apply_pivot x ~q ~r;
         incr pivots;
         if !pivots land cancel_poll_mask = 0 then Cancel.check x.scancel;
         iterate x ~allow_artificial ~pivots)

  (* Revised dual simplex: starting from a dual-feasible basis (all
     non-artificial reduced costs >= 0) with some negative basic values,
     restore primal feasibility while keeping dual feasibility.
     Anti-cycling by the dual Bland rule: leaving row = smallest
     basic-variable index among infeasible rows; entering column =
     smallest index among the minimum ratio d_j / -alpha_j over
     alpha_j < 0.  [budget] bounds the pivot count (the caller falls back
     to a cold solve on a stall).  A row with no eligible column is a
     certificate of primal infeasibility. *)
  let dual_iterate (x : state) ~pivots ~budget =
    let m = Array.length x.beta in
    let rec go () =
      if !pivots >= budget then Stalled
      else begin
        maybe_refactor x;
        let leave = ref (-1) in
        for i = 0 to m - 1 do
          if F.compare x.beta.(i) F.zero < 0
             && (!leave < 0 || x.sbasis.(i) < x.sbasis.(!leave))
          then leave := i
        done;
        if !leave < 0 then Primal_feasible
        else begin
          let r = !leave in
          pivot_row x r;
          let best = ref (-1) in
          let best_ratio = ref F.zero in
          (* Off-support alpha is exactly zero, so scanning the support
             visits every eligible (alpha_j < 0) column. *)
          for k = 0 to x.alpha_n - 1 do
            let j = x.alpha_sup.(k) in
            if (not x.form.fis_artificial.(j))
               && F.compare x.alpha.(j) F.zero < 0
            then begin
              let ratio = F.div x.dj.(j) (F.neg x.alpha.(j)) in
              let c = if !best < 0 then -1 else F.compare ratio !best_ratio in
              (* Equal ratios break to the lowest column index so the scan
                 order over the (unsorted) support does not matter. *)
              if c < 0 || (c = 0 && j < !best) then begin
                best := j;
                best_ratio := ratio
              end
            end
          done;
          if !best < 0 then Dual_infeasible_row
          else begin
            let q = !best in
            ftran_col x q;
            if F.is_zero x.w.(r) then raise Numerical_trouble
            else begin
              apply_pivot x ~q ~r;
              incr pivots;
              if !pivots land cancel_poll_mask = 0 then Cancel.check x.scancel;
              go ()
            end
          end
        end
      end
    in
    go ()

  let read_solution (p : P.t) (x : state) =
    let std = Array.make x.form.fncols F.zero in
    Array.iteri (fun r col -> std.(col) <- x.beta.(r)) x.sbasis;
    decode_std p ~encodings:x.form.fenc std

  (* The node of an optimal solve.  The solve is over, so the node takes
     the state's arrays as they are. *)
  let capture (p : P.t) (x : state) : node =
    { n_problem = p; n_encodings = x.form.fenc; n_rows = x.form.frows;
      n_rhs = x.form.fb; n_is_artificial = x.form.fis_artificial;
      n_basis = x.sbasis; n_xb = x.beta; n_dj = x.dj }

  (* Reset per-phase pricing state (the dual phase runs Bland; each primal
     phase restarts devex with a fresh reference framework). *)
  let reset_pricing (x : state) ~bland =
    x.bland <- bland;
    x.stall <- 0;
    Array.fill x.weights 0 (Array.length x.weights) 1.0

  (* --- cold solve ---------------------------------------------------- *)

  let solve_with_spec (p : P.t) (spec : spec) ~st ~cancel
      : result * node option =
    let rows, rhs, basis0, nart, nstd, ncols = rows_of_spec spec in
    let form =
      make_form ~encodings:spec.c_encodings ~rows ~rhs
        ~is_artificial:(Array.init ncols (fun j -> j >= nstd))
    in
    let x = new_state form basis0 ~st ~cancel in
    (* --- phase 1 ------------------------------------------------------ *)
    let feasible =
      if nart = 0 then true
      else
        Obs.Phases.time st.phases phase_phase1 (fun () ->
            for j = 0 to ncols - 1 do
              x.costs.(j) <- (if form.fis_artificial.(j) then F.one else F.zero)
            done;
            reset_pricing x ~bland:false;
            refactor x;
            let p1 = ref 0 in
            (match iterate x ~allow_artificial:true ~pivots:p1 with
             | Unbounded_direction ->
               (* Phase-1 objective is bounded below by 0; cannot happen. *)
               assert false
             | Finished -> ());
            st.phase1_pivots <- st.phase1_pivots + !p1;
            let z1 = ref F.zero in
            Array.iteri
              (fun r col ->
                if form.fis_artificial.(col) then z1 := F.add !z1 x.beta.(r))
              x.sbasis;
            F.is_zero !z1)
    in
    if not feasible then (Infeasible, None)
    else begin
      (* Drive surviving artificials out of the basis (they sit at 0);
         a row whose pivot row has no nonzero real coefficient is
         redundant and keeps its artificial basic at 0. *)
      if nart > 0 then
        Obs.Phases.time st.phases phase_phase1 (fun () ->
            Array.iteri
              (fun r col ->
                if form.fis_artificial.(col) then begin
                  let mm = Array.length x.beta in
                  Obs.Phases.time st.phases phase_btran (fun () ->
                      Array.fill x.rho 0 mm F.zero;
                      x.rho.(r) <- F.one;
                      Lu.btran x.lu x.rho);
                  let q = ref (-1) in
                  for j = 0 to nstd - 1 do
                    if !q < 0 && not x.in_basis.(j) then begin
                      let acc = ref F.zero in
                      Sparse_mat.iter_col form.fa j (fun i v ->
                          if not (F.is_zero x.rho.(i)) then
                            acc := F.add !acc (F.mul v x.rho.(i)));
                      if not (F.is_zero !acc) then q := j
                    end
                  done;
                  if !q >= 0 then begin
                    ftran_col x !q;
                    if not (F.is_zero x.w.(r)) then begin
                      pivot_row x r;
                      apply_pivot x ~q:!q ~r;
                      st.phase1_pivots <- st.phase1_pivots + 1
                    end
                  end
                end)
              (Array.copy x.sbasis));
      (* --- phase 2 ------------------------------------------------------ *)
      let outcome =
        Obs.Phases.time st.phases phase_phase2 (fun () ->
            let costs = phase2_costs p ~encodings:spec.c_encodings ~ncols in
            Array.blit costs 0 x.costs 0 ncols;
            reset_pricing x ~bland:false;
            if Lu.eta_count x.lu = 0 then refactor x else compute_dj x;
            let p2 = ref 0 in
            let outcome = iterate x ~allow_artificial:false ~pivots:p2 in
            st.phase2_pivots <- st.phase2_pivots + !p2;
            outcome)
      in
      match outcome with
      | Unbounded_direction -> (Unbounded, None)
      | Finished -> (read_solution p x, Some (capture p x))
    end

  (* --- warm restart of a child node -------------------------------- *)

  (* The child's standard form is its parent's plus one row: the branch
     row over the parent's encodings, with a fresh slack at the parent's
     width, so every column the parent's basis references keeps its
     index.  The parent's basis plus that slack is a basis of the child;
     refactorize it — dual feasibility is inherited exactly: the extended
     basis is block-triangular, the new row's multiplier is zero, and
     every old reduced cost is unchanged — then repair primal feasibility
     with the budget-bounded dual phase.  [None] asks for a cold solve. *)
  let warm_child (parent : node) (p : P.t) row ~st ~budget ~cancel
      : (result * node option) option =
    let v, b, slack_coef =
      match row with
      | At_most (v, b) -> (v, b, F.one)
      | At_least (v, b) -> (v, b, F.neg F.one)
    in
    let encodings = parent.n_encodings in
    let terms, adjust = encode_terms encodings [ (F.one, v) ] in
    let slack = Array.length parent.n_is_artificial in
    let row_terms = (slack, slack_coef) :: List.map (fun (c, j) -> (j, c)) terms in
    let form =
      make_form ~encodings
        ~rows:(Array.append parent.n_rows [| row_terms |])
        ~rhs:(Array.append parent.n_rhs [| F.sub b adjust |])
        ~is_artificial:(Array.append parent.n_is_artificial [| false |])
    in
    let ncols = form.fncols in
    let x =
      new_state form (Array.append parent.n_basis [| slack |]) ~st ~cancel
    in
    let costs = phase2_costs p ~encodings ~ncols in
    Array.blit costs 0 x.costs 0 ncols;
    reset_pricing x ~bland:true;
    refactor x;
    (* Inherited dual feasibility; verify cheaply in case the parent's
       basis predates numeric drift (floats). *)
    let dual_ok = ref true in
    for j = 0 to ncols - 1 do
      if (not form.fis_artificial.(j)) && F.compare x.dj.(j) F.zero < 0 then
        dual_ok := false
    done;
    if not !dual_ok then None
    else begin
      let outcome =
        Obs.Phases.time st.phases phase_dual (fun () ->
            let dp = ref 0 in
            let outcome = dual_iterate x ~pivots:dp ~budget in
            st.dual_pivots <- st.dual_pivots + !dp;
            outcome)
      in
      match outcome with
      | Stalled -> None
      | Dual_infeasible_row -> Some (Infeasible, None)
      | Primal_feasible ->
        (* Optimality cleanup: exact arithmetic performs zero pivots
           here; floats absorb residual negative reduced costs. *)
        let cleanup =
          Obs.Phases.time st.phases phase_phase2 (fun () ->
              reset_pricing x ~bland:false;
              let p2 = ref 0 in
              let cleanup = iterate x ~allow_artificial:false ~pivots:p2 in
              st.phase2_pivots <- st.phase2_pivots + !p2;
              cleanup)
        in
        (match cleanup with
         | Unbounded_direction -> None
         | Finished -> Some (read_solution p x, Some (capture p x)))
    end

  (* ------------------------------------------------------------------ *)
  (* Entry points                                                        *)
  (* ------------------------------------------------------------------ *)

  let solve_cold (p : P.t) ~st ~cancel : result * node option =
    let nvars = P.num_vars p in
    let lowers = P.var_lowers p and uppers = P.var_uppers p in
    let infeasible_bounds =
      let rec go j =
        j < nvars
        && (match lowers.(j), uppers.(j) with
            | Some lo, Some hi when F.compare hi lo < 0 -> true
            | _ -> go (j + 1))
      in
      go 0
    in
    if infeasible_bounds then (Infeasible, None)
    else solve_with_spec p (build_spec p ~lowers ~uppers) ~st ~cancel

  (** Outcome of a {!solve_node} or {!branch} call.  [warm_used] means the
      result came from the warm path (the dual phase converged);
      [fell_back] means a warm restart was tried but a cold solve produced
      the result (dual-phase stall or drift).  [node] is [Some] exactly
      when [result] is optimal: the point to {!branch} from. *)
  type outcome = {
    result : result;
    stats : stats;
    warm_used : bool;
    fell_back : bool;
    node : node option;
  }

  (* One solve's bookkeeping: a span, the counters, and the ["setup"]
     phase charged with whatever the inner phases do not time. *)
  let instrumented f : outcome =
    Obs.span "simplex.solve" (fun () ->
        let st = fresh_stats () in
        Obs.Metrics.incr m_solves;
        let (result, node), warm_used, fell_back =
          Obs.Phases.time st.phases phase_setup (fun () -> f st)
        in
        st.pivots <- st.phase1_pivots + st.phase2_pivots + st.dual_pivots;
        Obs.Metrics.add m_pivots st.pivots;
        if st.dual_pivots > 0 then Obs.Metrics.add m_dual_pivots st.dual_pivots;
        observe_phase_histograms st;
        Obs.add_attr "pivots" (Obs.Int st.pivots);
        if warm_used then Obs.add_attr "warm" (Obs.Bool true);
        { result; stats = st; warm_used; fell_back; node })

  (** Cold-solve [p]; an optimal solve returns the root node of a search. *)
  let solve_node ?(cancel = Cancel.none) (p : P.t) : outcome =
    instrumented (fun st -> (solve_cold p ~st ~cancel, false, false))

  let solve_stats ?cancel (p : P.t) : result * stats =
    let o = solve_node ?cancel p in
    (o.result, o.stats)

  let solve ?cancel (p : P.t) : result = fst (solve_stats ?cancel p)

  (** Solve the child of [parent] that adds [row] to its problem, warm
      from the parent's basis.  The dual-pivot budget scales with the
      basis height; a stall falls back to a cold solve of the child's
      problem, so a warm start can never yield a different answer than a
      cold one — only fewer (or, pathologically, more) pivots. *)
  let branch ?(cancel = Cancel.none) (parent : node) (row : bound_row)
      : outcome =
    let p = P.copy parent.n_problem in
    (match row with
     | At_most (v, b) ->
       P.add_constraint ~label:"branch" p [ (F.one, v) ] Lp_problem.Le b
     | At_least (v, b) ->
       P.add_constraint ~label:"branch" p [ (F.one, v) ] Lp_problem.Ge b);
    instrumented (fun st ->
        let budget = 64 + (4 * (Array.length parent.n_basis + 1)) in
        let attempt =
          try warm_child parent p row ~st ~budget ~cancel
          with Lu.Singular | Numerical_trouble -> None
        in
        match attempt with
        | Some r ->
          Obs.Metrics.incr m_warm_starts;
          (r, true, false)
        | None -> (solve_cold p ~st ~cancel, false, true))
end
