(* Dense tableau simplex and a depth-first branch & bound, kept as a
   differential oracle for the revised simplex in [Dart_lp.Simplex] and
   the warm-started search in [Dart_lp.Milp].

   This is how LPs were solved before the revised core became the only
   one: every pivot rewrites the whole tableau and Bland's rule picks the
   entering and leaving variables.  Nothing is factorized, priced
   partially or warm-started, and the standard form is its own: each
   variable is an offset plus a signed sum of non-negative columns, and a
   row whose slack cannot start basic gets an artificial.  Slow, O(m·n)
   per pivot, and obviously right. *)

module Make (F : Dart_lp.Field.S) = struct
  module P = Dart_lp.Lp_problem.Make (F)

  type lp = Optimal of F.t * F.t array | Infeasible | Unbounded

  (* Bland pivoting on tableau [t] (rows of length [ncols + 1], rhs last)
     against the reduced-cost row [obj], over the columns below
     [allowed].  Returns [false] when an entering column has no ratio
     row, i.e. the objective is unbounded. *)
  let rec iterate t obj basis ~ncols ~allowed =
    let rec entering j =
      if j >= allowed then None
      else if F.compare obj.(j) F.zero < 0 then Some j
      else entering (j + 1)
    in
    match entering 0 with
    | None -> true
    | Some col ->
      let leave = ref (-1) and best = ref F.zero in
      Array.iteri
        (fun i r ->
          if F.compare r.(col) F.zero > 0 then begin
            let ratio = F.div r.(ncols) r.(col) in
            let c = if !leave < 0 then -1 else F.compare ratio !best in
            if c < 0 || (c = 0 && basis.(i) < basis.(!leave)) then begin
              leave := i;
              best := ratio
            end
          end)
        t;
      if !leave < 0 then false
      else begin
        pivot t obj basis ~ncols ~row:!leave ~col;
        iterate t obj basis ~ncols ~allowed
      end

  and pivot t obj basis ~ncols ~row ~col =
    let r = t.(row) in
    let piv = r.(col) in
    for j = 0 to ncols do
      if not (F.is_zero r.(j)) then r.(j) <- F.div r.(j) piv
    done;
    r.(col) <- F.one;
    let eliminate o =
      let f = o.(col) in
      if not (F.is_zero f) then begin
        for j = 0 to ncols do
          if not (F.is_zero r.(j)) then o.(j) <- F.sub o.(j) (F.mul f r.(j))
        done;
        o.(col) <- F.zero
      end
    in
    Array.iteri (fun i o -> if i <> row then eliminate o) t;
    eliminate obj;
    basis.(row) <- col

  (* Install [costs] as the reduced-cost row of the current basis. *)
  let price t basis costs ~ncols =
    let obj = Array.make (ncols + 1) F.zero in
    Array.blit costs 0 obj 0 (Array.length costs);
    Array.iteri
      (fun i b ->
        let f = obj.(b) in
        if not (F.is_zero f) then
          for j = 0 to ncols do obj.(j) <- F.sub obj.(j) (F.mul f t.(i).(j)) done)
      basis;
    obj

  let solve_lp (p : P.t) : lp =
    let nv = P.num_vars p in
    (* x_j = offset + sum of coef * u_col over non-negative columns u. *)
    let ncols_x = ref 0 in
    let col () = let c = !ncols_x in incr ncols_x; c in
    let caps = ref [] in
    let enc =
      Array.init nv (fun j ->
          match (P.var_lowers p).(j), (P.var_uppers p).(j) with
          | Some lo, hi ->
            let u = col () in
            Option.iter (fun hi -> caps := (u, F.sub hi lo) :: !caps) hi;
            (lo, [ (u, F.one) ])
          | None, Some hi -> (hi, [ (col (), F.neg F.one) ])
          | None, None ->
            let up = col () in
            let un = col () in
            (F.zero, [ (up, F.one); (un, F.neg F.one) ]))
    in
    let nx = !ncols_x in
    let rows =
      Array.of_list
        (List.rev_map (fun (u, cap) -> ([ (u, F.one) ], Dart_lp.Lp_problem.Le, cap)) !caps
        @ List.map
            (fun (c : P.constr) ->
              let rhs = ref c.rhs and terms = ref [] in
              List.iter
                (fun (a, j) ->
                  let off, cols = enc.(j) in
                  rhs := F.sub !rhs (F.mul a off);
                  List.iter (fun (u, k) -> terms := (u, F.mul a k) :: !terms) cols)
                c.terms;
              (!terms, c.op, !rhs))
            (Array.to_list (P.constraints p)))
    in
    let m = Array.length rows in
    (* Columns: the u's, one slack per row (unused on equalities), one
       artificial per row (used only where the slack cannot start basic),
       then the rhs. *)
    let slack i = nx + i and art i = nx + m + i in
    let ncols = nx + (2 * m) in
    let basis = Array.make m (-1) in
    let t =
      Array.mapi
        (fun i (terms, op, rhs) ->
          let r = Array.make (ncols + 1) F.zero in
          List.iter (fun (u, a) -> r.(u) <- F.add r.(u) a) terms;
          (match op with
           | Dart_lp.Lp_problem.Le -> r.(slack i) <- F.one
           | Ge -> r.(slack i) <- F.neg F.one
           | Eq -> ());
          r.(ncols) <- rhs;
          if F.compare rhs F.zero < 0 then
            Array.iteri (fun j x -> r.(j) <- F.neg x) r;
          if F.equal r.(slack i) F.one then basis.(i) <- slack i
          else begin
            r.(art i) <- F.one;
            basis.(i) <- art i
          end;
          r)
        rows
    in
    (* Phase 1: minimise the sum of the artificials. *)
    let phase1 = Array.init ncols (fun j -> if j >= art 0 then F.one else F.zero) in
    let obj = price t basis phase1 ~ncols in
    (* Bounded below by 0, so never unbounded. *)
    ignore (iterate t obj basis ~ncols ~allowed:ncols);
    let infeasibility = ref F.zero in
    Array.iteri
      (fun i b -> if b >= art 0 then infeasibility := F.add !infeasibility t.(i).(ncols))
      basis;
    if not (F.is_zero !infeasibility) then Infeasible
    else begin
      (* Pivot the artificials left at zero out of the basis; a row with
         no real nonzero is redundant and keeps its artificial. *)
      Array.iteri
        (fun i b ->
          if b >= art 0 then
            let rec real j =
              if j < art 0 then
                if F.is_zero t.(i).(j) then real (j + 1)
                else pivot t obj basis ~ncols ~row:i ~col:j
            in
            real 0)
        (Array.copy basis);
      (* Phase 2: the real objective, artificials barred. *)
      let sense = if P.minimize p then F.one else F.neg F.one in
      let costs = Array.make ncols F.zero in
      List.iter
        (fun (a, j) ->
          List.iter
            (fun (u, k) -> costs.(u) <- F.add costs.(u) (F.mul sense (F.mul a k)))
            (snd enc.(j)))
        (P.objective p);
      let obj = price t basis costs ~ncols in
      if not (iterate t obj basis ~ncols ~allowed:(art 0)) then Unbounded
      else begin
        let value = Array.make ncols F.zero in
        Array.iteri (fun i b -> value.(b) <- t.(i).(ncols)) basis;
        let x =
          Array.map
            (fun (off, cols) ->
              List.fold_left
                (fun acc (u, k) -> F.add acc (F.mul k value.(u)))
                off cols)
            enc
        in
        Optimal (P.eval_terms (P.objective p) x, x)
      end
    end

  (* Depth-first branch & bound on the first fractional integer variable,
     down branch first.  With [integral_objective] a node is pruned once
     the ceiling (floor, when maximising) of its bound cannot beat the
     incumbent.  Returns the optimal objective and assignment. *)
  let solve_milp ?(integral_objective = false) (p : P.t) : lp =
    let q = P.copy p in
    let integers = P.var_integers p in
    let minimize = P.minimize p in
    let incumbent = ref None and unbounded = ref false in
    let beats bound =
      match !incumbent with
      | None -> true
      | Some (best, _) ->
        let bound =
          if not integral_objective then bound
          else if minimize then F.ceil bound
          else F.floor bound
        in
        if minimize then F.compare bound best < 0 else F.compare bound best > 0
    in
    let rec explore () =
      match solve_lp q with
      | Infeasible -> ()
      | Unbounded -> unbounded := true
      | Optimal (obj, x) when beats obj -> (
        let rec fractional j =
          if j >= Array.length x then None
          else if integers.(j) && not (F.is_integer x.(j)) then Some j
          else fractional (j + 1)
        in
        match fractional 0 with
        | None -> incumbent := Some (obj, x)
        | Some j ->
          let branch op rhs =
            P.add_constraint q [ (F.one, j) ] op rhs;
            explore ();
            P.pop_constraint q
          in
          branch Dart_lp.Lp_problem.Le (F.floor x.(j));
          branch Dart_lp.Lp_problem.Ge (F.ceil x.(j)))
      | Optimal _ -> ()
    in
    explore ();
    match !incumbent with
    | Some (obj, x) -> Optimal (obj, x)
    | None -> if !unbounded then Unbounded else Infeasible
end
