(** Practical-scenario extensions of Section 5.

    A (commodity values) and B (layout slot significance) reweight the
    objective; C (multi-view display) lives in {!Mvd}; D (generalized
    group-wise social benefits) and E (subgroup changes) are below; F
    (the dynamic scenario) is the serving engine {!Serve}, whose joins
    carry a {!Dynamic.user_profile}. *)

(** {1 A. Commodity values} *)

val with_commodity_values : Instance.t -> float array -> Instance.t
(** Reweights every [p(u,c)] and [τ(u,v,c)] by the commodity value
    [ω_c] (length m, non-negative), turning the objective into expected
    profit. All algorithms apply unchanged (the paper's guarantee is
    preserved under per-item scaling). *)

(** {1 B. Layout slot significance} *)

val weighted_total_utility : Instance.t -> gamma:float array -> Config.t -> float
(** The slot-significance objective: slot [s]'s contribution is scaled
    by [γ_s] (length k, non-negative). *)

val optimize_slot_order : Instance.t -> gamma:float array -> Config.t -> Config.t
(** Because SVGIC slots are interchangeable, any configuration's slot
    contents can be permuted globally without changing co-display
    structure; this places the highest-utility slot content on the most
    significant slot (an exact optimum over the k! permutations, since
    the weighted objective is a sum of products paired by sorting). *)

(** {1 D. Generalized (group-wise) social benefits} *)

val diminishing_tau_group :
  Instance.t -> gamma:float -> int -> int array -> int -> float
(** A standard group-wise influence surrogate:
    [τ(u,V,c) = (Σ_{v∈V} τ(u,v,c))^γ] with [γ ∈ (0,1]] giving
    diminishing returns in the subgroup size ([γ = 1] degenerates to
    the pairwise objective). *)

val groupwise_total_utility :
  Instance.t ->
  tau_group:(int -> int array -> int -> float) ->
  Config.t ->
  float
(** Objective under a group-wise social model: for each user, slot and
    maximal co-display subgroup [V] (the other users seeing the same
    item at that slot), the social term is [tau_group u V c]. *)

(** {1 E. Subgroup changes} *)

val edit_distance : Instance.t -> Config.t -> int
(** Total subgroup fluctuation: the number of (ordered-slot, friend
    pair) events where a pair is co-displayed at slot [s] but separated
    at slot [s+1]. *)

val smooth_subgroup_changes : Instance.t -> Config.t -> Config.t
(** Reorders slots globally (utility-preserving, see
    [optimize_slot_order]) to reduce [edit_distance]: a greedy
    nearest-neighbour path over slots under the pair-break distance. *)
