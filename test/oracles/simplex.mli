(** Dense two-phase primal simplex: the reference the LP tests compare
    [Svgic_lp.Revised_simplex] against.

    It solves exactly the programs built by [Problem]: maximization,
    non-negative variables with optional upper bounds, [<= / >= / =]
    rows. Upper bounds are compiled to explicit rows, which keeps the
    implementation simple at the cost of tableau size — adequate for
    the small programs of the equivalence tests. *)

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded

and solution = { x : float array; objective : float; pivots : int }

val solve : ?max_pivots:int -> Svgic_lp.Problem.t -> status
(** [solve p] runs the two-phase simplex. [max_pivots] (default
    [200_000]) bounds total pivot operations; exceeding it raises
    [Failure] — in practice it indicates a modelling bug, not a hard
    instance. Degeneracy is handled by switching to Bland's rule after
    a stall. *)
