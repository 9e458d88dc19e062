(** Sparse revised simplex with bounded variables, warm starts and
    solve supervision.

    The scalable exact backend for the [Problem] programs: constraint
    rows are kept sparse (the CSC view built by {!Problem.csc}),
    variable bounds are handled natively in the ratio test instead of
    being materialized as rows, and the basis inverse lives in a
    {!Factor.t} — a Markowitz-ordered sparse LU with threshold partial
    pivoting and Forrest–Tomlin updates, refactorized on fill growth
    or a failed update stability test. Bland's rule takes over pricing and the ratio test
    after a stall, so degenerate programs terminate.

    Supervision (DESIGN.md §5 "Failure handling"): problem data is
    screened for NaN/Inf before any algebra; the basic values are
    re-screened every iteration, with a refactorization as first aid
    and a recovery ladder behind it (cold restart under Bland's rule,
    then a single deterministic perturbed-objective retry whose basis
    warm starts a final solve of the true program). A
    {!Svgic_util.Supervise.token} is polled once per pivot, so a
    deadline or cancellation surfaces as {!Timeout} within one
    iteration, carrying the best iterate reached.

    Memory: a solve works on its domain's workspace — the state arrays
    and a {!Factor.t}, kept in [Domain.DLS] and sized to the largest
    program the domain has solved — instead of allocating them per
    solve. It holds the workspace for its whole recovery ladder and
    releases it on every exit, exceptions included; a solve that
    starts while its domain's workspace is held (re-entry) allocates
    private arrays. Everything a solve returns ([x], the [vbasis]) is
    freshly allocated at the program's exact size. None of this is
    visible in results: a solve gives the same pivots, basis and
    objective bits whatever ran in the domain before it.

    This is the repository's only exact LP engine, standing in for the
    commercial solver (Gurobi) the paper uses. A dense tableau kept
    under [test/oracles/] solves the same class of programs; the
    randomized equivalence tests in [test/test_revised_simplex.ml] pin
    this solver to it, and to itself under a fresh factorization after
    every pivot. *)

type vbasis
(** Snapshot of a basis: the basic/at-lower/at-upper status of every
    structural and logical column. Valid for any [Problem] with the
    same rows and variables — only bounds and objective may differ,
    which is exactly the shape of branch-and-bound node re-solves and
    of repeated relaxation solves. *)

type stats = {
  refactorizations : int;  (** base-factorization rebuilds *)
  fill_nnz : int;  (** factor nonzeros after the last rebuild *)
  basis_nnz : int;  (** basis-column nonzeros at the last rebuild *)
  updates : int;  (** Forrest–Tomlin updates across the solve *)
  update_nnz : int;
      (** nonzeros those updates stored (row etas plus spike entries) *)
  factor_s : float;  (** seconds spent refactorizing *)
}
(** Factorization counters for the attempt that produced the verdict
    (the recovery ladder reports its final rung). [pivots] lives on
    the solution itself. *)

type solution = {
  x : float array;  (** structural variable values *)
  objective : float;
  pivots : int;  (** basis changes performed (bound flips excluded) *)
  basis : vbasis;  (** final basis, reusable via [solve ?basis] *)
  stats : stats;
}

type partial = {
  x : float array;  (** best iterate reached (structural values) *)
  objective : float;  (** objective of [x] — an optimum only by luck *)
  pivots : int;
  basis : vbasis;  (** resumable via [solve ?basis] with a fresh token *)
  feasible : bool;
      (** whether [x] satisfied the constraints when the clock ran out;
          an infeasible partial is only good for warm-starting *)
  stats : stats;
}

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Timeout of partial
      (** The supervision token expired or was cancelled mid-solve. *)

val vbasis_entries : vbasis -> int array
(** Raw per-column status entries (0 basic / 1 at lower / 2 at upper),
    as a copy. Together with {!vbasis_of_entries} this is the
    fault-injection seam: tests corrupt a snapshot and check the solver
    falls back to a cold start bit-for-bit. *)

val vbasis_of_entries : int array -> vbasis
(** Rebuild a snapshot from raw entries (copied). No validation — the
    solver itself rejects malformed snapshots at install time. *)

val solve :
  ?max_pivots:int ->
  ?basis:vbasis ->
  ?token:Svgic_util.Supervise.token ->
  ?refactor_every:int ->
  Problem.t ->
  status
(** [solve ?basis p] maximizes [p]. When [basis] is given and its
    shape matches [p] (same variable and row counts) the solve warm
    starts from it — phase 1 runs only as far as the bound changes
    made the old basis infeasible; any mismatch or singular basis
    falls back silently to a cold start, so passing a stale basis is
    always safe. [max_pivots] (default [500_000]) bounds basis
    changes per attempt; exceeding it raises [Failure].

    [refactor_every] overrides the refactorization policy with a fixed
    update period ([~refactor_every:1] = a fresh factorization after
    every pivot, the testing anchor: the equivalence tests assert that
    it agrees with the default policy within [1e-7]).

    [token] supervises the solve: it is polled once per iteration and
    expiry returns [Timeout] with the current iterate. Without it the
    solve is unsupervised (the poll degrades to one atomic read, which
    is how the clean path stays bit-identical and within the < 2%
    overhead budget).

    Raises [Failure] on non-finite problem data (NaN/Inf coefficient,
    objective, rhs or bound) and when numerical breakdown survives the
    whole recovery ladder. *)
