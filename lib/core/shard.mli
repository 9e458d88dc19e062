(** Community-sharded end-to-end pipeline: partition the instance
    along its social structure, solve + round every shard independently
    (in parallel), stitch the shard configurations back together and
    repair the cut.

    The social term of the SVGIC objective (Definition 3) only couples
    users across edges of [E], so the objective factors *exactly* over
    connected components and near-exactly over modular communities: for
    any partition of the users, the only objective mass a per-shard
    solve cannot see is the λ-weighted τ mass of the cut edges. That
    gives both the speedup (per-shard LP/FW programs are far smaller
    than the monolith's [(n + n·p)·m] variables) and the bracket
    ([Σ_shard shard_objective − cut_mass <= objective <= OPT <=
    Σ_shard shard_upper + cut_mass], the lower side an equality when
    the cut is empty). *)

type labelling =
  | Components  (** connected components — sharding is exact *)
  | Modularity  (** [Community.greedy_modularity] (deterministic) *)
  | Balanced of int
      (** [Community.balanced_partition] into the given number of
          equal-size parts (takes the partition call's [rng]);
          {!partition} raises [Invalid_argument] unless the part
          count is between 1 and the user count *)
  | Labels of int array
      (** caller-supplied community label per user (arbitrary ints) *)

type shard = {
  inst : Instance.t;
      (** zero-copy {!Instance.sub_view} over the source arenas with
          users renumbered [0..] (a self-contained root after
          {!materialize_shards}) *)
  users : int array;  (** shard-local id -> global id (increasing) *)
}

type partition = {
  source : Instance.t;
  shards : shard array;  (** ordered by smallest global member id *)
  cut_pairs : (int * int) array;
      (** friend pairs (global ids, [u < v]) whose endpoints landed in
          different shards — the edges no shard can see *)
  cut_mass : float;
      (** [λ · Σ_{(u,v) cut} Σ_c (τ(u,v,c) + τ(v,u,c))]: the total
          objective mass carried by the cut, i.e. the largest
          cross-shard social utility any configuration could realize *)
}

val partition :
  ?rng:Svgic_util.Rng.t -> ?labelling:labelling -> Instance.t -> partition
(** Builds one zero-copy sub-instance *view* per community of the
    labelling (default [Components]): count-then-fill passes over the
    source edge and pair indices produce each shard's local->parent
    remap tables, and every shard shares the source's pref/τ/adjacency
    arenas — O(n + edges) time and extra memory total, no per-shard
    data copies. [rng] is consumed only by [Balanced] (default seed 0 —
    the split is then deterministic). A view source is materialized
    first (views cannot nest). *)

val materialize_shards : partition -> partition
(** Copies every shard view out into a self-contained root instance
    (same ids, same values — {!Instance.materialize} per shard). The
    memory-expensive baseline the equivalence tests and the
    [shard_partition] bench compare the views against. *)

type rounding =
  | Avg of { repeats : int; advanced_sampling : bool }
      (** [Algorithms.avg_best_of] per shard *)
  | Avg_d of { r : float option }  (** deterministic AVG-D per shard *)

type on_fault =
  | Isolate
      (** a shard whose solve raises ([Failure] or an injected fault)
          is degraded to its top-k greedy floor and marked in
          {!result.degraded}; the fan-out and the certificate survive *)
  | Raise
      (** shard exceptions propagate (wrapped in
          [Svgic_util.Pool.Worker_failure] by the fan-out) — the
          fail-fast mode for tests and debugging *)

type result = {
  config : Config.t;  (** stitched + repaired global configuration *)
  objective : float;  (** its total SAVG utility on [source] *)
  bound : float;
      (** the certificate [Σ_shard shard_objective − cut_mass]; always
          [<= objective] (τ is non-negative, repair never decreases the
          objective), and [= objective] up to float summation order
          when the cut is empty *)
  upper_bound : float;
      (** the certified upper bound [Σ_shard s_upper + cut_mass] on the
          global optimum: each shard's relaxation bounds every
          configuration's within-shard utility ({!solved.s_upper}),
          and [cut_mass] bounds all cross-shard social utility.
          Together with [objective] it brackets OPT:
          [objective <= OPT <= upper_bound]; [infinity] while any shard
          has no certificate *)
  shard_objectives : float array;  (** per shard, in shard order *)
  cut_mass : float;  (** copied from the partition *)
  repair_gain : float;
      (** objective gained by the cut-repair pass (0 when the cut is
          empty or [repair_passes = 0]) *)
  degraded : bool array;
      (** per shard, in shard order: [true] when the degradation
          ladder fired for that shard (deadline expiry, numerical
          failure, or an injected fault under [Isolate]); its entry in
          [shard_objectives] is then the utility of the fallback
          configuration actually stitched, so [bound <= objective]
          still holds with no correction term *)
}

val solve_round :
  ?backend:Relaxation.backend ->
  ?size_cap:int ->
  ?domains:int ->
  ?repair_passes:int ->
  ?token:Svgic_util.Supervise.token ->
  ?on_fault:on_fault ->
  rounding:rounding ->
  Svgic_util.Rng.t ->
  partition ->
  result
(** Runs the full config-phase backend selection ([Auto] resolves per
    shard against the current {!Relaxation.backend_budget}, so small
    shards get exact solves even when the monolith would not) and the
    chosen rounding on every shard inside a [Pool.parallel_map] fan-out
    ([domains] as in [Algorithms.avg_best_of]). Each shard draws from
    its own [Rng.split_n] stream and all inner parallelism is forced
    serial, so the result is bit-identical for every [domains] value.
    An edge-free shard skips the LP entirely: with no social coupling
    its exact optimum is each user's top-k preferred items (the λ = 0
    argument of Section 4.4, per shard).

    Each worker spills its shard's rows straight into the shared
    global assignment as soon as the shard is solved (user rows are
    disjoint across shards) and drops the view's cached boxed tables,
    so the fan-out's peak memory is O(largest shard + arena) rather
    than proportional to the sum of all shard footprints.

    Stitching maps shard rows back to global ids; then cut repair runs
    [Polish.improve_users] best-response sweeps (at most
    [repair_passes], default 2) restricted to the cut-edge endpoints —
    the only users whose cells were priced without their cross-shard
    friends — so the objective never decreases. [repair_passes:0]
    disables repair (the pure stitched configuration, which the
    exactness tests compare against the monolith).

    Each shard runs {!solve_one} at fault site ["shard.solve"] and
    its shard index, with no warm basis and no incumbent. [token]
    supervises every shard's solve (DESIGN.md §5): a shard whose
    deadline expires before rounding returns its top-k greedy
    configuration instead. [on_fault] (default [Isolate]) decides
    whether a shard whose solve raises is degraded in place or allowed
    to kill the round. Injected faults follow the same ladder, so
    chaos tests can assert exactly which shards degrade. A clean run
    is bit-identical to the unsupervised one. *)

(** {2 The per-shard solve ladder} *)

type solved = {
  s_config : Config.t;  (** the configuration the ladder settled on *)
  s_utility : float;  (** its total utility on the shard instance *)
  s_degraded : bool;  (** a degraded relaxation, or a fall-back *)
  s_basis : Svgic_lp.Revised_simplex.vbasis option;
      (** final basis of a completed solve, for the next [?warm] *)
  s_fell_back : bool;
      (** no rounding ran (deadline, failure or injected fault):
          [s_config] is the incumbent, else the greedy floor *)
  s_upper : float;
      (** certified upper bound on the shard optimum, from the
          relaxation the ladder solved: the greedy optimum of an
          edge-free shard on the shortcut, else
          {!Relaxation.upper_bound} (the LP value, or the Frank–Wolfe
          certificate); [infinity] for a degraded relaxation or a
          fall-back *)
}

val solve_one :
  ?backend:Relaxation.backend ->
  ?size_cap:int ->
  ?warm:Svgic_lp.Revised_simplex.vbasis ->
  ?incumbent:Config.t ->
  ?token:Svgic_util.Supervise.token ->
  ?on_fault:on_fault ->
  site:string ->
  index:int ->
  rounding:rounding ->
  Svgic_util.Rng.t ->
  Instance.t ->
  solved
(** One shard's solve under the degradation ladder, shared by
    {!solve_round} and [Serve]'s re-solves (DESIGN.md §5 "Failure
    handling"). In order: the fault poll at [site] and [index]; an
    edge-free shard with no [size_cap] and no injected fault takes its
    exact top-k optimum; {!Relaxation.solve} [?warm ?token] on
    [backend] (default [Auto]) with inner parallelism on one domain;
    the iterate health screen, then the deadline check; [rounding]
    (AVG draws from [rng]); the greedy floor under a degraded
    relaxation, then the [incumbent] floor, each only when strictly
    better; on deadline expiry, or on [Failure] or an injected fault
    under [Isolate] (the default), the fall-back to [incumbent], else
    to the greedy floor. Under [Isolate] every injected kind takes the
    fall-back, so it degrades the shard and leaves it with no
    certificate ([s_upper = infinity]): a fault may loosen the
    bracket, never break it. A clean call is bit-identical to an
    unsupervised one. *)
