(** The S*(AC) MILP encoding of the card-minimal repair problem (paper §5):

    {v
      min Σ δᵢ
      s.t.  A·Z ⊙ B              (ground rows of S(AC))
            yᵢ = zᵢ - vᵢ
            |yᵢ| ≤ M·δᵢ
            zᵢ, yᵢ ∈ ℤ or ℝ per the cell's domain;  δᵢ ∈ {0,1}
    v} *)

open Dart_numeric
open Dart_relational
open Dart_constraints
open Dart_lp

module P : module type of Lp_problem.Make (Field_rat)

type t = {
  problem : P.t;
  cells : Ground.cell array;   (** z-variable order *)
  z : P.var array;
  y : P.var array;
  delta : P.var array;
  big_m : Rat.t;
  originals : Rat.t array;     (** the vᵢ *)
}

val default_big_m : Database.t -> Ground.row list -> Rat.t
(** The practical data-magnitude bound used instead of the paper's
    theoretical n·(ma)^(2m+1) (see DESIGN.md §5). *)

val cell_is_integer : Database.t -> Ground.cell -> bool
(** Whether the cell's attribute domain is ℤ (drives I_ℤ vs I_ℝ).
    @raise Invalid_argument for string cells. *)

val relop_of : Agg_constraint.op -> Lp_problem.relop

val build : ?cancel:Dart_resilience.Cancel.t -> ?big_m:Rat.t ->
  ?forced:(Ground.cell * Rat.t) list ->
  Database.t -> Ground.row list -> t
(** Build the instance.  [forced] pins cells to exact values (operator
    instructions, §6.3), each becoming an equality row.  [cancel] is
    polled while emitting rows.
    @raise Dart_resilience.Cancel.Cancelled if the token fires. *)

val decode : Database.t -> t -> Rat.t array -> Repair.t
(** Read a repair off a solution: one atomic update per cell whose z value
    differs from the original. *)

val near_big_m : t -> Rat.t array -> bool
(** True when some |yᵢ| is within a factor 2 of M — the signal to re-solve
    with a larger bound. *)

val num_vars : t -> int
val num_rows : t -> int
val num_cells : t -> int
