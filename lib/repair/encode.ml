(** Translation of the card-minimal repair problem into MILP — the system
    S*(AC) of paper §5.

    Given the ground linear system S(AC) (from {!Dart_constraints.Ground})
    over cells z₁…z_N with original values v₁…v_N, the instance is

    {v
      min Σ δᵢ
      s.t.  A·Z ⊙ B                    (the ground rows)
            yᵢ = zᵢ - vᵢ               ∀i
            yᵢ - M·δᵢ ≤ 0              ∀i
            -yᵢ - M·δᵢ ≤ 0             ∀i
            zᵢ, yᵢ ∈ ℤ for integer-domain cells, ∈ ℝ otherwise
            δᵢ ∈ {0,1}
    v}

    The y-variables are kept explicit (they are substitutable) so that the
    generated instance has exactly the shape the paper prints in Figure 4.

    M is the big-M constant.  The paper's theoretical bound
    n·(ma)^(2m+1) is astronomically large; we use the standard practical
    bound derived from the data magnitudes and let {!Solver} re-solve with
    a larger M in the rare case a solution presses against it. *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_lp

module P = Lp_problem.Make (Field_rat)

type t = {
  problem : P.t;
  cells : Ground.cell array;
  z : P.var array;
  y : P.var array;
  delta : P.var array;
  big_m : Rat.t;
  originals : Rat.t array;
}

let index_of_cells cells =
  let tbl = Hashtbl.create (List.length cells) in
  List.iteri (fun i c -> Hashtbl.add tbl c i) cells;
  tbl

(** Default practical big-M: a comfortable multiple of the total data
    magnitude appearing in the system. *)
let default_big_m db rows =
  let cells = Ground.cells rows in
  let sum_v =
    List.fold_left (fun acc c -> Rat.add acc (Rat.abs (Ground.db_valuation db c))) Rat.zero cells
  in
  let sum_rhs = List.fold_left (fun acc r -> Rat.add acc (Rat.abs r.Ground.rhs)) Rat.zero rows in
  Rat.mul (Rat.of_int 4) (Rat.add (Rat.add sum_v sum_rhs) Rat.one)

(** Whether a cell lives in the integer domain ℤ (drives I_ℤ vs I_ℝ). *)
let cell_is_integer db (tid, attr) =
  let tu = Database.find db tid in
  let rs = Schema.relation (Database.schema db) (Tuple.relation tu) in
  match Schema.attr_domain rs attr with
  | Value.Int_dom -> true
  | Value.Real_dom -> false
  | Value.String_dom -> invalid_arg "Encode: string cell cannot be repaired"

let relop_of = function
  | Agg_constraint.Le -> Lp_problem.Le
  | Agg_constraint.Ge -> Lp_problem.Ge
  | Agg_constraint.Eq -> Lp_problem.Eq

(** Build the S*(AC) instance for a ground system.
    [forced] pins cells to exact values — the operator "instructions" of the
    validation interface (§6.3), each becoming an equality row. *)
let build ?(cancel = Dart_resilience.Cancel.none) ?big_m ?(forced = []) db
    (rows : Ground.row list) : t =
  (* Building a huge instance can itself take a while; honour a deadline
     that expired while the request sat in a queue before any MILP work. *)
  Dart_resilience.Cancel.check cancel;
  let big_m = match big_m with Some m -> m | None -> default_big_m db rows in
  let cells = Array.of_list (Ground.cells rows) in
  let n = Array.length cells in
  let idx = index_of_cells (Array.to_list cells) in
  let originals = Array.map (Ground.db_valuation db) cells in
  let p = P.create () in
  let z =
    Array.mapi
      (fun i (tid, attr) ->
        P.add_var ~name:(Printf.sprintf "z_%d_%s" tid attr)
          ~integer:(cell_is_integer db cells.(i)) p)
      cells
  in
  let y =
    Array.mapi
      (fun i (tid, attr) ->
        P.add_var ~name:(Printf.sprintf "y_%d_%s" tid attr)
          ~integer:(cell_is_integer db cells.(i)) p)
      cells
  in
  let delta =
    Array.map
      (fun (tid, attr) ->
        P.add_var ~name:(Printf.sprintf "d_%d_%s" tid attr) ~lower:Field_rat.zero
          ~upper:Field_rat.one ~integer:true p)
      cells
  in
  (* A·Z ⊙ B — accumulated through a sparse row builder: coefficients of a
     cell mentioned several times in one aggregate combine into one term,
     and memory stays O(row nnz) regardless of the cell count N. *)
  let row_b =
    Sparse_vec.Builder.create ~add:Rat.add ~is_zero:Rat.is_zero ()
  in
  List.iteri
    (fun k (r : Ground.row) ->
      if k land 255 = 0 then Dart_resilience.Cancel.check cancel;
      Sparse_vec.Builder.clear row_b;
      List.iter
        (fun (c, cell) -> Sparse_vec.Builder.add row_b z.(Hashtbl.find idx cell) c)
        r.terms;
      P.add_constraint ~label:r.origin p (Sparse_vec.Builder.terms row_b)
        (relop_of r.op) r.rhs)
    rows;
  (* yᵢ = zᵢ - vᵢ *)
  for i = 0 to n - 1 do
    P.add_constraint ~label:(Printf.sprintf "y%d-def" i) p
      [ (Rat.one, y.(i)); (Rat.minus_one, z.(i)) ]
      Lp_problem.Eq (Rat.neg originals.(i))
  done;
  (* |yᵢ| ≤ M·δᵢ *)
  for i = 0 to n - 1 do
    P.add_constraint ~label:(Printf.sprintf "y%d<=Md" i) p
      [ (Rat.one, y.(i)); (Rat.neg big_m, delta.(i)) ]
      Lp_problem.Le Rat.zero;
    P.add_constraint ~label:(Printf.sprintf "-y%d<=Md" i) p
      [ (Rat.minus_one, y.(i)); (Rat.neg big_m, delta.(i)) ]
      Lp_problem.Le Rat.zero
  done;
  (* Operator-forced exact values. *)
  List.iter
    (fun (cell, value) ->
      match Hashtbl.find_opt idx cell with
      | Some i ->
        P.add_constraint ~label:"operator" p [ (Rat.one, z.(i)) ] Lp_problem.Eq value
      | None -> ()) (* cell not constrained by AC: nothing to pin *)
    forced;
  P.set_objective ~minimize:true p
    (Array.to_list (Array.map (fun d -> (Rat.one, d)) delta));
  { problem = p; cells; z; y; delta; big_m; originals }

(** Read a repair off a MILP assignment: one atomic update per cell whose z
    differs from the original value. *)
let decode db (t : t) (assignment : Rat.t array) : Repair.t =
  let updates = ref [] in
  Array.iteri
    (fun i (tid, attr) ->
      let zv = assignment.(t.z.(i)) in
      if not (Rat.equal zv t.originals.(i)) then begin
        let tu = Database.find db tid in
        let rs = Schema.relation (Database.schema db) (Tuple.relation tu) in
        let dom = Schema.attr_domain rs attr in
        updates := Update.make ~tid ~attr ~new_value:(Value.of_rat dom zv) :: !updates
      end)
    t.cells;
  List.rev !updates

(** True when some y value is suspiciously close to ±M (within a factor 2),
    indicating the practical big-M may have clipped the solution space. *)
let near_big_m (t : t) (assignment : Rat.t array) =
  let half_m = Rat.div t.big_m (Rat.of_int 2) in
  Array.exists (fun yi -> Rat.compare (Rat.abs assignment.(yi)) half_m >= 0) t.y

let num_vars t = P.num_vars t.problem
let num_rows t = P.num_constraints t.problem
let num_cells t = Array.length t.cells
