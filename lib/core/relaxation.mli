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
          (** ignored: the engine runs on the calling domain. Kept
              only because [perfbench/plan_wl.ml] builds and matches
              on it; drop it with the next change to perfbench. *)
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
  pivots : int;  (** simplex basis changes of the final attempt *)
  factor : Svgic_lp.Revised_simplex.stats;
      (** factorization counters (refactorizations, fill, Forrest–Tomlin
          updates and their fill, refactorization seconds) *)
}
(** Solver counters, surfaced for diagnostics (the CLI prints them
    under [--verbose]). *)

type t = {
  xbar : float array array;  (** [n x m] utility factors, rows sum to k *)
  scaled_objective : float;  (** relaxation objective in scaled units *)
  scaled_upper : float;
      (** the solve's certified upper bound on the relaxation optimum,
          hence on OPT, in scaled units: the LP value of an exact
          solve, [ub + smoothing·ln 2·W] of a Frank–Wolfe solve
          (Corollary 4.2), [infinity] on the greedy floor. Read it
          through {!upper_bound}, which also honours [degraded] *)
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
          a lower bound on the relaxation optimum, not the optimum, and
          {!upper_bound} is [infinity] *)
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
    exact → exact retry (cold) → gap-certified Frank–Wolfe →
    top-k greedy floor — always returning a feasible
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
(** The certified upper bound on OPT in original SAVG-utility units,
    for every backend: [objective_scale · scaled_upper], i.e. the LP
    value of an exact solve or the Frank–Wolfe certificate.
    [infinity] when the relaxation is [degraded]. *)

val factor : Instance.t -> t -> int -> int -> float
(** [factor inst r u c] = the per-slot utility factor
    [xbar(u)(c) / k]. *)
