(** Best-response local search over SAVG k-configurations.

    The paper's Extension E exchanges sub-configurations to reduce
    subgroup changes by local search. This module provides the
    machinery as an optional post-pass on any configuration:
    repeatedly give one (user, slot) cell its best item (respecting
    no-duplication) until a fixed point. Each pass is O(n·k·m·d̄) for
    average degree d̄; the objective never decreases. *)

val improve : ?max_passes:int -> Instance.t -> Config.t -> Config.t
(** Runs best-response passes (default at most 8) and returns the
    improved configuration. The result's total utility is >= the
    input's. *)

val improve_users :
  ?max_passes:int -> Instance.t -> Config.t -> int array -> Config.t
(** Best-response passes restricted to the given users (in the given
    order), everyone else frozen. Drives the sharded pipeline's
    cut-repair: only cut-edge endpoints can have mispriced cells, so
    only they are swept. The objective never decreases. *)

val improve_users_in_place :
  ?max_passes:int -> Instance.t -> int array array -> int array -> unit
(** {!improve_users} on the caller's assignment rows, in place: only
    the listed users' rows are written, the others are only read, so
    the result is exactly {!improve_users}'s without copying every row.
    The serving engine's per-tick cut repair runs on its live rows
    this way, at a cost proportional to the repair set rather than
    to the session. *)

val gap_estimate :
  Instance.t -> Relaxation.t -> Config.t -> float
(** [gap_estimate inst relax cfg] = utility(cfg) /
    {!Relaxation.upper_bound}: a certificate of quality for every
    backend (ratio 1 means provably optimal); [0] when the relaxation
    degraded and certifies no upper bound. *)
