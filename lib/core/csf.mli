(** Co-display Subgroup Formation (CSF) rounding state.

    CSF maintains a partially built SAVG k-Configuration. One CSF step
    takes focal parameters [(c, s, α)] and co-displays the focal item
    [c] at slot [s] to every *eligible* user whose utility factor
    [x*(u,c,s)] is at least the grouping threshold [α]. A user is
    eligible for [(c, s)] iff her slot [s] is still empty, she has not
    been displayed [c] at another slot (no-duplication), and — in the
    SVGIC-ST variant — the subgroup at [(c, s)] has not been locked by
    the size constraint. *)

type t

type prep
(** The immutable part of a CSF state: the n×m utility-factor table
    and the per-item user ordering, both derived once from a solved
    relaxation. One [prep] can back any number of states, so repeated
    roundings over the same relaxation (AVG best-of-N, per-shard
    repeats) share the factor materialization instead of paying it per
    rounding. *)

val prepare : Instance.t -> Relaxation.t -> prep
(** Builds the shared read-only tables and forces every lazy they (or
    the rounding paths) touch — the user ordering and the instance's
    scaled preferences — so the result is safe to share across
    [Svgic_util.Pool] domains. *)

val of_prep : ?size_cap:int -> prep -> t
(** Fresh state with every cell empty over shared tables. [size_cap]
    is the SVGIC-ST subgroup size constraint [M]; omitted means
    unconstrained. *)

val create : ?size_cap:int -> Instance.t -> Relaxation.t -> t
(** [of_prep] over a private [prep] (with the user ordering computed
    lazily — single-state callers that never consult it don't pay for
    it). *)

val instance : t -> Instance.t
val factors : t -> float array array
(** Per-slot utility factors [x*(u)(c) = xbar(u)(c)/k] ([n x m]),
    owned by the state — do not mutate. *)

val remaining : t -> int
(** Number of empty (user, slot) cells. *)

val complete : t -> bool
val eligible : t -> user:int -> item:int -> slot:int -> bool

val item_used : t -> user:int -> item:int -> bool
(** Whether [item] is already displayed to [user] at some slot. *)

val fill_slot_empty : t -> slot:int -> bool array -> unit
(** Writes whether user [u]'s [slot] is still empty into index [u] of
    the array (one flag per user). Lets a caller evaluating many items
    of one slot hoist the per-user emptiness lookups out of its inner
    loops. *)

val group_size : t -> item:int -> slot:int -> int
(** Users currently co-displayed [item] at [slot]. *)

val locked : t -> item:int -> slot:int -> bool

val apply : t -> item:int -> slot:int -> alpha:float -> int list
(** One CSF step; returns the users assigned in this step (possibly
    empty). Under a [size_cap], users are admitted in decreasing
    utility-factor order until the cap is reached, at which point the
    (item, slot) pair is locked (the paper's extension of CSF for
    SVGIC-ST). *)

val max_eligible_factor : t -> item:int -> slot:int -> float
(** The advanced-sampling weight [x̄*(c,s)]: the largest utility factor
    among users still eligible for [(c, s)], or [-1.] if none is
    eligible. *)

val sorted_users : t -> int -> int array
(** Users in decreasing order of factor for the given item (static;
    shared with AVG-D's threshold scan). Owned by the state. *)

val assign_cell : t -> user:int -> item:int -> slot:int -> unit
(** Direct assignment (used by the greedy completion fallback and by
    the dynamic-scenario module). Raises [Invalid_argument] if the
    cell is taken or the item already shown to the user. *)

val greedy_complete : t -> unit
(** Fills every remaining empty cell with the unused item of highest
    utility factor (ties by scaled preference). Safety net ensuring
    termination of the sampling-based variants. *)

val to_config : t -> Config.t
(** The finished configuration. Raises [Invalid_argument] if cells are
    still empty. *)
