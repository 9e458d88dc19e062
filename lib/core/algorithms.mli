(** The paper's algorithms: AVG (randomized, Theorem 4: expected
    4-approximation; 2-approximation for k = 1) and AVG-D (its
    derandomization, Theorem 5), plus the trivial independent rounding
    of Algorithm 1 (Lemma 3: can be Θ(1/m) of optimal) kept as an
    executable counter-example.

    All functions take a pre-solved relaxation so that the LP cost is
    paid once and shared across repetitions/ablations; use
    [Relaxation.solve] (or [Relaxation.solve_without_transform] for the
    "–ALP" ablation). *)

val top_k_greedy : Instance.t -> Config.t
(** Each user's [k] preferred items, independently — the λ = 0 exact
    optimum (Section 4.4) and the bottom rung of the degradation
    ladder (DESIGN.md §5): it needs no relaxation, no RNG and no
    social data, so it is the configuration a failed or timed-out
    shard can always fall back to. Its total utility is a lower bound
    any degraded solve must meet (the ladder floors its output at this
    configuration). *)

val avg :
  ?advanced_sampling:bool ->
  ?size_cap:int ->
  Svgic_util.Rng.t ->
  Instance.t ->
  Relaxation.t ->
  Config.t
(** Alignment-aware VR Subgroup Formation. With
    [advanced_sampling:true] (default) focal pairs [(c,s)] are drawn
    proportionally to the maximum eligible utility factor and [α]
    uniformly below it (Observation 3: same outcome distribution as the
    plain sampler conditioned on progress, with no idle iterations).
    With [false] the plain sampler of Algorithm 2 is used (the "–AS"
    ablation), with an iteration cap and greedy completion as a safety
    net. [size_cap] activates the SVGIC-ST subgroup-size extension.

    For [λ = 0] (and no size cap) the problem is trivial (Section 4.4)
    and both AVG and AVG-D return the exact optimum directly: each
    user's top-k preferred items. *)

val avg_best_of :
  ?advanced_sampling:bool ->
  ?size_cap:int ->
  ?domains:int ->
  repeats:int ->
  Svgic_util.Rng.t ->
  Instance.t ->
  Relaxation.t ->
  Config.t
(** Corollary 4.1: repeats AVG and keeps the configuration with the
    best total SAVG utility. The repeats fan out over
    [Svgic_util.Pool] ([domains] defaults to the recommended domain
    count; [1] forces the serial path): each repeat draws from its own
    [Rng.split] stream derived serially from [rng], and the winner is
    reduced by (utility, lowest repeat index), so the result is
    identical for every [domains] value given the same root state. *)

val avg_d :
  ?r:float ->
  ?size_cap:int ->
  ?domains:int ->
  Instance.t ->
  Relaxation.t ->
  Config.t
(** Deterministic AVG. Each iteration evaluates every candidate
    [(c, s, α = x*(u,c,s))] and applies the CSF step maximizing
    [ALG(S_tar) + r·OPT_LP(S_fut)]; [r] defaults to the
    guarantee-preserving 1/4 (Section 6.7 studies other values).

    The initial m·k candidate sweep fans out over [Svgic_util.Pool]
    ([domains] as in [avg_best_of]), and the per-iteration argmax
    tracks one champion per slot (maintained during the dirty
    same-item/same-slot recomputation sweep, with a lazy O(m) slot
    rescan only when a sitting champion is recomputed) instead of a
    full m·k cache rescan. Output is identical for every [domains]
    value, and bit for bit that of the serial seed implementation
    with its full m·k rescan, which the tests keep as their oracle
    ([test/oracles/avg_d_reference.ml]). *)

(** The AVG-D inner loop in isolation: one prepared-slot evaluation
    sweep (re-score every item of one slot against the frozen rounding
    state). This is the per-iteration hot path of [avg_d]; it is
    exposed so the allocation bench can pin it — a sweep over a
    created [t] allocates no words at all (no closures, options or
    list cells on the path), which the [csf_slot_eval] bench row
    asserts. *)
module Slot_eval : sig
  type t

  val create : ?r:float -> Instance.t -> Relaxation.t -> t
  (** Fresh AVG-D evaluation context over an empty rounding state
      ([r] defaults to 1/4, as in [avg_d]). *)

  val sweep : t -> slot:int -> unit
  (** Prepare [slot]'s per-user emptiness flags, then evaluate every
      item of the slot, leaving per-item best scores/thresholds in
      internal flat arrays. Allocation-free. *)
end

val independent_rounding :
  Svgic_util.Rng.t -> Instance.t -> Relaxation.t -> int array array
(** Algorithm 1: each cell independently draws an item with probability
    equal to its utility factor. The result generally violates the
    no-duplication constraint, which is the point of Lemma 3 — returned
    as a raw matrix, not a [Config.t]. *)
