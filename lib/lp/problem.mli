(** Linear-program description shared by the simplex solvers and the
    branch-and-bound ILP solver.

    Conventions: every variable carries a finite lower bound (default
    0) and an optional finite upper bound, and the objective is always
    *maximized*. A constraint row is a sparse list of (variable,
    coefficient) terms when it goes in ({!add_row}) and comes out
    ({!rows}); in between, rows are stored in growable flat arrays (row
    starts, variables, coefficients, senses, right-hand sides) in
    insertion order, so a program holds no boxed term per nonzero. *)

type cmp = Le | Ge | Eq

type row = { terms : (int * float) list; cmp : cmp; rhs : float }
(** One row as {!rows} returns it: its terms in insertion order,
    duplicates kept. *)

type csc = {
  c_nv : int;  (** column (variable) count at build time *)
  c_nr : int;  (** row count at build time *)
  col_ptr : int array;  (** length [c_nv + 1]; column [v] spans
                            [col_ptr.(v) .. col_ptr.(v+1) - 1] *)
  row_ind : int array;  (** row index per nonzero *)
  values : float array;  (** coefficient per nonzero *)
  row_cmp : cmp array;  (** sense per row *)
  row_rhs : float array;  (** right-hand side per row *)
}
(** Compressed-sparse-column view of the constraint matrix, in row
    insertion order. Built once per structural revision of the
    problem and shared by clones (see {!csc}). *)

type t

val create : unit -> t

val add_var : t -> ?name:string -> ?upper:float -> obj:float -> unit -> int
(** [add_var t ?name ?upper ~obj ()] registers a variable and returns
    its index. [name] is used only by {!pp}; when omitted no string is
    allocated and {!pp} prints ["v<idx>"] instead. *)

val add_row : t -> (int * float) list -> cmp -> float -> unit
(** Adds a constraint row (terms copied into the flat row arrays; a
    variable may appear more than once, and its coefficients add up).
    Raises [Invalid_argument] if a term references an unknown variable,
    leaving the program unchanged. *)

val clone : t -> t
(** Independent copy of the bounds and objective; the rows (and the
    cached CSC view) are shared. Branch-and-bound uses this to apply
    node-local bound fixings without disturbing the base program. The
    shared rows are copied on write: a later {!add_row} on either the
    clone or the original copies them first, so neither sees the
    other's new rows. *)

val set_upper : t -> int -> float option -> unit
(** Replaces a variable's upper bound (fixing a binary to 0 is
    [set_upper t v (Some 0.)]). *)

val set_lower : t -> int -> float -> unit
(** Replaces a variable's lower bound (fixing a binary to 1 is
    [set_lower t v 1.]). Lower bounds must be non-negative. *)

val set_obj : t -> int -> float -> unit
(** Replaces a variable's objective coefficient. Like the bound
    setters this does not invalidate the cached CSC view, so a clone
    with a (re)scaled objective — the revised simplex's perturbed
    retry — shares the base program's matrix. *)

val num_vars : t -> int
val num_rows : t -> int

val num_nonzeros : t -> int
(** Total constraint-matrix nonzeros (bounds excluded). *)

val objective : t -> float array
(** Objective coefficient per variable (copy). *)

val upper_bound : t -> int -> float option
val lower_bound : t -> int -> float

val bounds_into : t -> lo:float array -> up:float array -> unit
(** Write every variable's bounds into the first [num_vars] cells of
    the caller's arrays ([infinity] for a missing upper bound).
    Allocation-free, unlike reading {!upper_bound} per variable — used
    by the revised-simplex build path. *)

val rows : t -> row array
(** All rows in insertion order, rebuilt as term lists from the flat
    arrays (for oracles, tests and debugging; the solvers read
    {!csc}). *)

val csc : t -> csc
(** Sparse column view of the rows, built on first use and cached
    until the next [add_var] / [add_row]. Bound and objective edits do
    not invalidate it, and {!clone} shares the cache, so a
    branch-and-bound tree builds it exactly once. Within a column the
    entries follow row insertion order; duplicate terms stay separate
    entries. *)

val eval_objective : t -> float array -> float
(** Objective value of a point (no feasibility check). *)

val check_feasible : ?eps:float -> t -> float array -> bool
(** Verifies bounds and rows within tolerance [eps] (default 1e-6). *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump, for debugging small programs. *)
