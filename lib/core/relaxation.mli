(** Fractional relaxation solving — the "config phase" of AVG.

    The result is the compact utility-factor matrix [xbar] (one value
    per user and item, rows summing to [k]); the slot-indexed factors
    of the paper are [x*(u,c,s) = xbar(u)(c) / k] (Observation 2). *)

type backend =
  | Exact_simplex
      (** exact solve of [LP_SIMP] by the sparse revised simplex *)
  | Frank_wolfe of {
      iterations : int;  (** iteration cap *)
      smoothing : float;  (** soft-min temperature *)
      gap_tol : float option;
          (** stop at this smoothed duality gap; [None] runs the full
              iteration budget *)
      domains : int option;
          (** [Pool] fan-out cap; [None] lets the engine decide.
              Bit-identical results for every value. *)
    }
      (** scalable first-order solver with a duality-gap certificate
          (Corollary 4.2 applies: a gap-certified β-approximate
          fractional solution rounds to a 4β-approximation) *)
  | Auto  (** exact within {!backend_budget}, Frank–Wolfe otherwise *)

type budget = {
  exact_vars : int;  (** largest LP (variables) solved exactly under [Auto] *)
  exact_nnz : int;  (** largest LP (matrix nonzeros) solved exactly *)
}
(** Backend-selection thresholds, calibrated from the committed
    BENCH_kernels.json [lp_solve] rows so that [Auto]'s exact solves
    stay inside a ~2 s envelope: the revised simplex (sparse-LU
    factorization) measured ~64 ms at 1.9k LP variables and ~3.9 s at
    13.3k, and the fitted power law crosses 2 s near 9.5k variables /
    32k nonzeros. Defaults: [exact_vars = 9_500],
    [exact_nnz = 32_000]. Instances beyond the envelope route to the
    Frank–Wolfe engine, which reports its achieved gap in
    {!t.fw_gap}. *)

val backend_budget : unit -> budget
val set_backend_budget : budget -> unit
(** Global configuration read by {!choose_backend}; replaces the old
    hard-coded 1500-variable ceiling. *)

val choose_backend : Instance.t -> backend
(** The backend [Auto] resolves to, from the instance's [LP_SIMP]
    shape (variables, rows, nonzeros) and the current
    {!backend_budget}. Never returns [Auto]. The Frank–Wolfe fallback
    carries a default [gap_tol] of [1e-3 · n · k] (the objective's
    natural scale), so Auto solves are certified, not fixed-budget. *)

type lp_stats = {
  pivots : int;
      (** simplex basis changes — a single solve's final attempt, or
          the sum across every branch-and-bound node re-solve *)
  factor : Svgic_lp.Revised_simplex.stats;
      (** factorization counters (refactorizations, fill, update etas,
          refactorization seconds), aggregated the same way *)
  nodes : int;  (** tree nodes solved; [1] for a single (root-only) solve *)
  fw_iterations : int;
      (** total Frank–Wolfe sweeps across all nodes; [0] on simplex
          paths *)
  max_depth : int;  (** deepest branch-and-bound node solved *)
  gap_fathoms : int;
      (** nodes closed on a dual-gap certificate without an exact
          solve (Frank–Wolfe tree only) *)
  warm_starts : int;
      (** node solves warm-started from a parent iterate (Frank–Wolfe
          tree only; the simplex tree's warm-start payoff shows up as
          low [factor.refactorizations] instead) *)
}
(** Solver counters, surfaced for diagnostics (the CLI prints them
    under [--verbose]). Single relaxation solves fill the first two
    fields and leave the branch-and-bound aggregates at their
    one-node values; {!solve_integer} aggregates across the tree. *)

type t = {
  xbar : float array array;  (** [n x m] utility factors, rows sum to k *)
  scaled_objective : float;  (** relaxation objective in scaled units *)
  basis : Svgic_lp.Revised_simplex.vbasis option;
      (** final simplex basis when the exact path solved the program
          (optimal or feasible deadline partial); reusable via
          [solve ~warm] *)
  fw_gap : float option;
      (** achieved smoothed duality gap when the Frank–Wolfe engine
          solved the program ([None] on the exact paths):
          [scaled_objective >= OPT_relax - fw_gap - smoothing·ln 2·W]
          with [W] the total pair-weight mass *)
  degraded : bool;
      (** the degradation ladder descended below the requested backend
          (deadline partial, retry after numerical breakdown,
          Frank–Wolfe fallback, or the greedy floor): [xbar] is still
          feasible and [scaled_objective] is its true value, but it is
          a lower bound on the relaxation optimum, not the optimum —
          {!upper_bound} must not be read as an upper bound *)
  lp_stats : lp_stats option;
      (** pivot and factorization counters when the revised simplex
          produced [xbar] (optimal or feasible deadline partial);
          [None] on the Frank–Wolfe and greedy paths *)
}

val solve :
  ?backend:backend ->
  ?warm:Svgic_lp.Revised_simplex.vbasis ->
  ?token:Svgic_util.Supervise.token ->
  Instance.t ->
  t
(** Solves [LP_SIMP] (with the advanced LP transformation). Default
    backend [Auto]. [warm] re-starts the revised simplex from a basis
    returned by an earlier solve of a same-shaped instance (same [n],
    [m] and friend pairs — e.g. a re-solve after utility drift); a
    mismatched basis is ignored, so passing a stale one is safe.

    [token] supervises the solve (DESIGN.md §5 "Failure handling"):
    it is threaded into the simplex pivot loop / Frank–Wolfe sweep
    loop, and on expiry or failure the degradation ladder takes over —
    exact → exact retry (cold) → gap-certified serial
    Frank–Wolfe → top-k greedy floor — always returning a feasible
    [t] with [degraded = true] instead of raising. The ladder engages
    only on failure, so a clean supervised solve is bit-identical to
    the unsupervised one. Without a token, failures on the exact path
    still raise [Failure] (fail-fast for unsupervised callers); the
    Frank–Wolfe and greedy rungs never raise. *)

val solve_without_transform : Instance.t -> t
(** Ablation path ("AVG–ALP" in Figure 9(b)): solves the full
    slot-indexed [LP_SVGIC] with the simplex and aggregates
    [xbar(u)(c) = Σ_s x(u,c,s)]. Exponentially more expensive; only
    meaningful on small instances. *)

val upper_bound : Instance.t -> t -> float
(** The relaxation objective in original SAVG-utility units — an upper
    bound on OPT when the backend was exact. For a Frank–Wolfe solve
    it is a lower bound on the relaxation optimum instead; add the
    certificate slack from {!t.fw_gap} to recover an upper bound. *)

val factor : Instance.t -> t -> int -> int -> float
(** [factor inst r u c] = the per-slot utility factor
    [xbar(u)(c) / k]. *)

(** {1 Certified integer solves}

    Branch-and-bound over the compact selection objective (the
    [Pairwise_fw] program): each user's integral k-item selection,
    co-selection counted per pair. The integer selection optimum upper
    bounds every slot-aligned configuration's utility — and it is a
    much tighter certificate than the fractional relaxation bound,
    which is what the sharded pipeline's per-shard certificates
    want. *)

type integer_engine =
  | Bnb_simplex
      (** exact LP relaxations at every node ({!Svgic_lp.Branch_bound.solve}
          on the linearized ILP) — affordable only well inside the
          single-solve envelope, since the tree solves many LPs *)
  | Bnb_fw
      (** Frank–Wolfe node relaxations with dual-gap fathoming
          ({!Svgic_lp.Branch_bound.solve_fw}) — certified integer
          optima past the simplex-node envelope *)
  | Fw_fractional
      (** one certified fractional Frank–Wolfe solve, greedily rounded:
          the bound is sound but the rounding is not proved optimal *)

type integer_result = {
  xint : float array array option;
      (** integral selection ([n x m] 0/1, rows summing to [k]) *)
  int_objective : float;
      (** scaled selection objective of [xint]; [neg_infinity] if none *)
  int_bound : float;
      (** certified scaled upper bound on the integer selection
          optimum; [infinity] when every certified rung failed *)
  proved : bool;
      (** [int_bound - int_objective] within the engine's proof
          tolerance: [xint] is the certified optimum *)
  int_engine : integer_engine;  (** the ladder rung that produced the result *)
  int_stats : lp_stats option;
      (** tree-aggregated counters (satellite of the [--verbose]
          diagnostics); [None] only on the uncertified greedy floor *)
}

val solve_integer :
  ?time_budget_s:float ->
  ?node_budget:int ->
  ?token:Svgic_util.Supervise.token ->
  Instance.t ->
  integer_result
(** Certified integer selection solve, descending the ladder
    exact B&B → Frank–Wolfe B&B → certified fractional Frank–Wolfe →
    greedy floor only on failure. The first rung comes from the
    instance shape and the current {!backend_budget}: exact B&B needs
    3x headroom inside the single-solve envelope (the tree solves an
    LP per node), Frank–Wolfe B&B stretches to 4x past it, everything
    larger starts at the certified fractional solve. [time_budget_s] (and/or the
    remaining time of [token]) caps the tree; on expiry the incumbent
    and a sound [int_bound] come back with [proved = false] — the
    anytime behaviour {!Svgic_lp.Branch_bound.solve_fw} guarantees.
    The Frank–Wolfe rung picks its soft-min temperature so the
    smoothing slack spends at most half the certificate budget
    [1e-3 · n · k]. Never raises. *)
