(** Mutable LP/MILP problem builder, parameterized by the coefficient field.

    A problem is a set of variables (each with optional bounds and an
    integrality flag), a list of linear constraints and a linear objective.
    {!Simplex} solves the continuous relaxation; {!Milp} adds branch & bound
    over the variables marked integral. *)

type relop = Le | Ge | Eq

let string_of_relop = function Le -> "<=" | Ge -> ">=" | Eq -> "="

module Make (F : Field.S) = struct
  type var = int

  type bound = F.t option
  (** [None] means unbounded on that side. *)

  type constr = {
    terms : (F.t * var) list; (* coefficient * variable, duplicates allowed *)
    op : relop;
    rhs : F.t;
    label : string; (* provenance, e.g. the ground aggregate constraint *)
  }

  type t = {
    mutable nvars : int;
    mutable names : string list;   (* reversed *)
    mutable lowers : bound list;   (* reversed *)
    mutable uppers : bound list;   (* reversed *)
    mutable integers : bool list;  (* reversed *)
    mutable constrs : constr list; (* reversed *)
    mutable objective : (F.t * var) list;
    mutable minimize : bool;
  }

  let create () =
    { nvars = 0; names = []; lowers = []; uppers = []; integers = [];
      constrs = []; objective = []; minimize = true }

  let add_var ?(name = "") ?lower ?upper ?(integer = false) p =
    let v = p.nvars in
    let name = if name = "" then Printf.sprintf "x%d" v else name in
    p.nvars <- v + 1;
    p.names <- name :: p.names;
    p.lowers <- lower :: p.lowers;
    p.uppers <- upper :: p.uppers;
    p.integers <- integer :: p.integers;
    v

  let add_constraint ?(label = "") p terms op rhs =
    List.iter
      (fun (_, v) ->
        if v < 0 || v >= p.nvars then invalid_arg "Lp_problem.add_constraint: bad var")
      terms;
    p.constrs <- { terms; op; rhs; label } :: p.constrs

  (** An independent copy: mutating the copy (adding variables or
      constraints) never affects the original.  O(1) — the
      record fields are immutable lists, so they are shared. *)
  let copy p =
    { nvars = p.nvars; names = p.names; lowers = p.lowers; uppers = p.uppers;
      integers = p.integers; constrs = p.constrs; objective = p.objective;
      minimize = p.minimize }

  let set_objective ?(minimize = true) p terms =
    List.iter
      (fun (_, v) ->
        if v < 0 || v >= p.nvars then invalid_arg "Lp_problem.set_objective: bad var")
      terms;
    p.objective <- terms;
    p.minimize <- minimize

  let num_vars p = p.nvars
  let num_constraints p = List.length p.constrs

  (* Frozen array views, oriented in declaration order. *)
  let var_names p = Array.of_list (List.rev p.names)
  let var_lowers p = Array.of_list (List.rev p.lowers)
  let var_uppers p = Array.of_list (List.rev p.uppers)
  let var_integers p = Array.of_list (List.rev p.integers)
  let constraints p = Array.of_list (List.rev p.constrs)
  let objective p = p.objective
  let minimize p = p.minimize

  (** Count of variables flagged integral. *)
  let num_integer_vars p = List.fold_left (fun n b -> if b then n + 1 else n) 0 p.integers

  (** Evaluate a term list under an assignment. *)
  let eval_terms terms (assignment : F.t array) =
    List.fold_left (fun acc (c, v) -> F.add acc (F.mul c assignment.(v))) F.zero terms

  (** Check that an assignment satisfies every constraint and bound. *)
  let feasible p (assignment : F.t array) =
    let lowers = var_lowers p and uppers = var_uppers p in
    let bound_ok v =
      (match lowers.(v) with None -> true | Some l -> F.compare assignment.(v) l >= 0)
      && (match uppers.(v) with None -> true | Some h -> F.compare assignment.(v) h <= 0)
    in
    let constr_ok c =
      let lhs = eval_terms c.terms assignment in
      match c.op with
      | Le -> F.compare lhs c.rhs <= 0
      | Ge -> F.compare lhs c.rhs >= 0
      | Eq -> F.compare lhs c.rhs = 0
    in
    let rec vars_ok v = v >= p.nvars || (bound_ok v && vars_ok (v + 1)) in
    vars_ok 0 && List.for_all constr_ok p.constrs

  let pp fmt p =
    let names = var_names p in
    let pp_terms fmt terms =
      let first = ref true in
      List.iter
        (fun (c, v) ->
          if !first then first := false else Format.fprintf fmt " + ";
          Format.fprintf fmt "%s*%s" (F.to_string c) names.(v))
        terms
    in
    Format.fprintf fmt "%s %a@."
      (if p.minimize then "min" else "max")
      pp_terms p.objective;
    Array.iter
      (fun c ->
        Format.fprintf fmt "  %a %s %s%s@." pp_terms c.terms (string_of_relop c.op)
          (F.to_string c.rhs)
          (if c.label = "" then "" else "  ; " ^ c.label))
      (constraints p)
end
