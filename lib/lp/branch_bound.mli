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

type fw_options = {
  node_iterations : int;  (** Frank–Wolfe iteration cap per node *)
  smoothing : float;  (** soft-min temperature of the node solves *)
  root_gap_tol : float;  (** node gap tolerance at depth 0 *)
  leaf_gap_tol : float;  (** floor of the tolerance schedule *)
  gap_decay : float;
      (** geometric tightening:
          [tol(depth) = max(leaf, root · decay^depth)] — Boscia's
          [fw_dual_gap_limit] schedule: loose where the bound only
          steers node order, tight where fathoming needs precision *)
  fw_domains : int option;
      (** [Pool] fan-out per node solve; default [Some 1] (node
          programs are small, and the tree itself is the parallelism
          opportunity) *)
}

val default_fw_options : fw_options
(** 300 iterations/node, smoothing 0.005, schedule
    [max(1e-4, 0.5 · 0.5^depth)], serial node solves. *)

type options = {
  strategy : strategy;
  branch_rule : branch_rule;
  time_budget_s : float option;  (** wall-clock cap; anytime result *)
  node_budget : int option;
  gap_tol : float;  (** absolute bound-vs-incumbent gap for termination *)
  warm_start : bool;
      (** re-solve children warm: from the parent basis (simplex) or
          the parent's best iterate projected onto the child fixings
          (Frank–Wolfe) *)
}

val default_options : options
(** Best-first, most-fractional, no budget, [gap_tol = 1e-6], warm
    starts on. (Best-first replaced the old
    depth-first default: same optima, measurably fewer nodes explored
    — the bnb_fw bench records the node counts; pass [Depth_first]
    to get the old incumbent-early diving order.) *)

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
    {!Revised_simplex}; {!solve_fw} is the Frank–Wolfe counterpart for
    [Pairwise_fw] programs. *)

type fw_result = {
  incumbent : float array array option;
      (** best integral selection found, [n x m] 0/1 rows summing
          to [k] *)
  objective : float;  (** exact objective of the incumbent *)
  bound : float;
      (** proven global upper bound on the integer optimum: the max of
          the incumbent, every closed node's certificate
          [objective + gap + smoothing·ln 2·W] and the open frontier —
          sound even on timeout, where it yields the optimality-gap
          certificate [bound − objective] *)
  nodes : int;  (** nodes actually solved (prunes don't count) *)
  fw_iterations : int;  (** total Frank–Wolfe sweeps across all nodes *)
  gap_fathoms : int;
      (** nodes closed on a dual-gap certificate — before solving
          (parent bound beaten by the incumbent) or after (own
          certificate within tolerance of the incumbent) — without
          any exact solve *)
  warm_starts : int;  (** node solves warm-started from a parent iterate *)
  max_depth : int;  (** deepest node solved *)
  proved_optimal : bool;
  timed_out : bool;
      (** a time/node budget or the supervision token stopped the
          search; [incumbent] and the gap certificate are still
          valid *)
}

val solve_fw :
  ?options:options ->
  ?fw:fw_options ->
  ?token:Svgic_util.Supervise.token ->
  Pairwise_fw.problem ->
  fw_result
(** Branch-and-bound over the integral selections of a [Pairwise_fw]
    program (the compact SVGIC selection objective), with node
    relaxations solved by Frank–Wolfe instead of an exact LP — the
    Boscia recipe, reaching certified integer optima well past the
    simplex-node envelope.

    Per node: the parent's best iterate is projected onto the child's
    coordinate fixings and warm starts the solve ([options.warm_start]
    — the Frank–Wolfe analogue of the simplex engine's basis warm
    starts); the node's gap tolerance follows the
    [fw_options] depth schedule; and the node is fathomed as soon as
    its sound certificate [objective + gap + smoothing·ln 2·W] falls
    within the fathoming tolerance of the incumbent — including
    mid-solve, via the incumbent-driven early-stop target threaded
    into the engine. Every solved node donates a rounded integral
    candidate, so incumbents appear at the root, not at leaves.

    The fathoming tolerance is
    [max(options.gap_tol, smoothing·ln 2·W + leaf_gap_tol)]: the
    certificate of even a fully fixed leaf carries the smoothing
    slack, so no sound Frank–Wolfe tree can separate bounds finer than
    that — shrink [smoothing] (and pay slower node convergence) for a
    tighter proof. [options.strategy] orders the frontier exactly as
    in {!solve} (best-first on the node certificate by default);
    [fw] supplies the node-solve settings (default
    {!default_fw_options}).

    [token] supervises the whole tree and each node solve: on expiry
    the search stops and returns the incumbent with the global
    certificate [bound − objective] instead of nothing. When
    [Svgic_util.Fault] injection is enabled, each node polls site
    ["bnb_fw.node"] at its node index; an injected crash/NaN/timeout
    is recovered by one cold injection-free retry of the node, so a
    chaos run still proves optimality. *)
