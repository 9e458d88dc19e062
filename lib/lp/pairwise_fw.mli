(** Sparse Frank–Wolfe engine for the pairwise-concave
    relaxation shape shared by [LP_SIMP] (the compact SVGIC
    relaxation, Section 4.4 of the paper).

    The program solved is
    {v
      max  sum_u <linear_u, x_u> + sum_{(u,v,w)} sum_c w_c * min(x_u_c, x_v_c)
      s.t. x_u in [0,1]^m,  sum_c x_u_c = k          for every user u
    v}
    which is exactly [LP_SIMP] after substituting out the auxiliary
    [y] variables (at any optimum [y = min]). The feasible region is a
    product of capped simplices, so the linear maximization oracle is a
    per-user top-k selection — this is what makes the solver scale to
    configurations where even the sparse revised simplex would not.

    Engine structure (DESIGN.md §5 "First-order config phase"):
    - the social pairs with a non-zero weight are compiled once into
      flat arrays of (item, weight) entries, in pair-array order, so
      a full gradient/objective sweep costs O(n·m + nnz) instead of
      O(n·m + |pairs|·m); the iterate, the gradient and the oracle
      vertices are flat [n·m] (resp. [n·k]) arrays;
    - a sweep is two loops. The pair pass walks the non-zero
      (pair, item) entries once, takes one [exp] per entry, and adds
      both endpoints' soft-min shares straight into the gradient and
      the exact objective term into the lower-numbered endpoint's
      slot. The user pass then runs, per user, the dot products, the
      optional swap move, the top-k oracle and the duality-gap
      contribution. A per-user update pass follows. The solve runs on
      the calling domain;
    - the Frank–Wolfe gap [<grad f_s, v - x>] of the smoothed
      objective [f_s] is accumulated every sweep; [gap_tol] stops the
      solve as soon as it certifies the iterate.

    The [min] terms are smoothed with a soft-min of temperature
    [smoothing] to make the objective differentiable; the reported
    solution is the iterate with the best *exact* (unsmoothed)
    objective. Writing [W] for the total absolute pair-weight mass,
    the smoothed objective brackets the exact one within
    [smoothing · ln 2 · W], so a returned gap [g] certifies
    [objective >= OPT - g - smoothing · ln 2 · W]: a β-approximate
    fractional solution, which Corollary 4.2 of the paper turns into a
    (4·β)-approximation for the rounded configuration. *)

type problem = {
  n : int;  (** users *)
  m : int;  (** items *)
  k : int;  (** slots; requires [k <= m] *)
  linear : float array array;  (** [n x m] scaled preference utilities *)
  pairs : (int * int * float array) array;
      (** undirected pairs [(u, v, w)] with per-item combined social
          weight [w] (length [m]); requires [u <> v] *)
}

type solution = {
  x : float array array;  (** [n x m] fractional utility factors *)
  objective : float;  (** exact (unsmoothed) objective of [x] *)
  iterations : int;  (** update steps actually applied *)
  gap : float;
      (** smallest smoothed Frank–Wolfe duality gap observed at any
          iterate; certifies the returned [x] as described above *)
  ub : float;
      (** smallest [exact objective + smoothed gap] over all iterates
          visited: a sound upper bound on the smoothed optimum. Adding
          {!smoothing_slack} turns it into an upper bound on the exact
          optimum, the certificate [Relaxation] reports. [infinity]
          when no sweep completed *)
  timed_out : bool;
      (** the supervision token expired or was cancelled before the
          iteration budget or [gap_tol] was reached; [x] is still the
          best exact-objective iterate visited *)
}

val objective : problem -> float array array -> float
(** Exact objective (with true [min]) of a feasible point. *)

val weight_mass : problem -> float
(** Total absolute pair-weight mass [W = Σ_pairs Σ_c |w_c|]. *)

val smoothing_slack : smoothing:float -> problem -> float
(** [smoothing · ln 2 · weight_mass p]: the bracket between the
    smoothed and exact objectives, i.e. the slack to add to
    {!solution.ub} for a bound on the exact optimum. *)

type sweep_state
(** Everything one sweep reads and writes: the flat linear
    terms, iterate and gradient, the non-zero (pair, item) entries in
    pair-array order, and the per-user output slots (objective and gap
    contributions, oracle vertex, optional swap move). [solve] builds
    one per call; it is exposed so the allocation bench can measure the
    sweep in isolation. *)

val sweep_state : ?smoothing:float -> ?swap_steps:bool -> problem -> sweep_state
(** Fresh sweep state at the uniform feasible iterate [x_u_c = k/m].
    Defaults match {!solve}. Raises [Invalid_argument] when [linear]
    does not have [n] rows, and on a self-pair or a pair endpoint
    outside [0, n). *)

val sweep_serial : sweep_state -> unit
(** One sweep over every user against the state's current iterate, on
    the calling domain: the pair pass, which takes one [exp] per
    (pair, item) with a non-zero weight, then the user pass. For
    [k <= 16] (the one-pass insertion oracle) this allocates no words
    at all — every float lives in a flat array or a compiler-unboxed
    local, and the path builds no closures, options or lists; the
    [fw_sweep] bench row asserts the 0 words/op. *)

val gradient : ?smoothing:float -> problem -> float array array -> float array array
(** Dense [n x m] soft-min gradient at a point, computed by the pair
    pass {!solve} runs. Exposed so tests can pin the production
    arithmetic against a dense oracle. *)

val solve :
  ?iterations:int ->
  ?smoothing:float ->
  ?gap_tol:float ->
  ?token:Svgic_util.Supervise.token ->
  ?swap_steps:bool ->
  problem ->
  solution
(** [solve p] runs at most [iterations] (default 400) Frank–Wolfe
    steps with soft-min temperature [smoothing] (default 0.05).

    [gap_tol] stops the solve at the first iterate whose smoothed
    duality gap is at or below the (absolute) tolerance; without it
    the engine runs the full iteration budget and still reports the
    best gap observed.

    [token] supervises the solve (DESIGN.md §5): it is polled once per
    sweep, and expiry stops the solve with [timed_out = true] and the
    best iterate banked so far. The engine also screens the problem
    data up front (raising [Failure] on NaN/Inf preferences or pair
    weights) and stops early if an iterate's objective or gap ever
    goes non-finite, so a numerically poisoned run degrades to "best
    finite iterate seen" instead of returning garbage.

    [swap_steps] (default false) enables a pairwise-style move: when
    swapping mass from the user's worst loaded coordinate onto its
    best unsaturated one makes more first-order progress than the
    classic convex-combination step, the swap is taken instead. This
    sidesteps the late-stage zig-zag of vanilla Frank–Wolfe; the
    returned iterate is still the best exact-objective point visited,
    so enabling it never degrades the reported solution. *)
