(** Branch-and-bound ILP solver over [Problem] programs whose
    designated variables are binary.

    Stands in for the paper's Gurobi MIP runs (the exact "IP" baseline
    and the Figure 9(a) MIP-algorithm comparison). The node-selection
    and branching strategies below play the role of the commercial
    solver's algorithm variants; all are exact but explore the tree in
    different orders, which is what the time-budgeted comparison
    measures.

    Node relaxations are solved by {!Revised_simplex}. Branching
    fixings are pure bound changes (lower := 1 / upper := 0), so every
    node shares the root LP's rows and CSC view, and each child
    re-solve warm starts from its parent's optimal basis — typically a
    handful of dual pivots instead of a full cold solve. *)

type strategy =
  | Depth_first  (** dive on the up-branch first; finds incumbents early *)
  | Best_first  (** explore by LP bound; tightest global bound first *)
  | Hybrid  (** depth-first until the first incumbent, then best-first *)

type branch_rule =
  | Most_fractional  (** variable closest to 1/2 *)
  | Max_objective  (** fractional variable with the largest objective weight *)

type options = {
  strategy : strategy;
  branch_rule : branch_rule;
  time_budget_s : float option;  (** wall-clock cap; anytime result *)
  node_budget : int option;
  gap_tol : float;  (** absolute bound-vs-incumbent gap for termination *)
  warm_start : bool;  (** re-solve children warm from the parent basis *)
}

val default_options : options
(** Best-first, most-fractional, no budget, [gap_tol = 1e-6], warm
    starts on. (Best-first replaced the old depth-first default: same
    optima, measurably fewer nodes explored — the [simplex_bb] bench
    row records the node counts; pass [Depth_first] to get the old
    incumbent-early diving order.) *)

type result = {
  incumbent : float array option;  (** best integral solution found *)
  objective : float;  (** objective of the incumbent, [neg_infinity] if none *)
  bound : float;  (** proven global upper bound *)
  nodes : int;
  pivots : int;  (** total simplex pivots across all node re-solves *)
  refactorizations : int;
      (** total basis refactorizations across all node re-solves — the
          warm-start payoff shows up here: a well-warmed child usually
          pivots to optimality without a single rebuild *)
  proved_optimal : bool;
}

val solve : ?options:options -> Problem.t -> binary:int array -> result
(** [solve p ~binary] maximizes [p] with the variables listed in
    [binary] restricted to {0,1}. Binary variables must carry an upper
    bound of at most 1. Node relaxations are solved by
    {!Revised_simplex}. *)
