(** Extension F: the dynamic scenario — users join and leave the
    shopping session over time (Section 5).

    Re-running the full AVG pipeline per event is expensive; following
    the paper, a join is handled incrementally: the newcomer is slotted
    into existing co-display subgroups greedily (CSF-style, by marginal
    utility), then a bounded local search exchanges items between the
    newcomer's and her friends' cells. A leave simply removes the user.
    [resolve] re-runs the full pipeline when solution drift warrants
    it.

    {2 External ids}

    The API speaks {e external} user ids, which are stable across any
    sequence of joins and leaves — a server can address a user across
    ticks without replaying the event history. Internally the instance
    is indexed by a compact numbering that every leave reshuffles; the
    session carries the remap:

    - [start] numbers the initial population 0..n-1 (external =
      internal, so existing code is unaffected until the first leave).
    - [leave] tombstones the external id: it stops resolving, and is
      pushed on a free list.
    - [join] pops the free list (most recently freed first) and
      {e reuses} that external id, or mints the next fresh integer
      when the list is empty. A caller holding an id across a
      leave/join pair should expect the id to name the new occupant.
    - [internal_of] and [user_ids] expose the remap for callers
      that need to index instance/config arrays (which are always in
      internal order). Internal ids are only valid until the next
      [leave]. *)

type t

type user_profile = {
  pref : float array;  (** length m *)
  tau_out : int -> int -> float;
      (** external friend id -> item -> τ(new, friend, item) *)
  tau_in : int -> int -> float;
      (** external friend id -> item -> τ(friend, new, item) *)
  friends : int array;  (** existing external user ids (bidirectional) *)
}

val start :
  ?warm:Svgic_lp.Revised_simplex.vbasis -> Svgic_util.Rng.t -> Instance.t -> t
(** Solves the initial instance with AVG. [warm] seeds the relaxation
    solve with a basis from an earlier same-shaped session (see
    {!Relaxation.solve}). External ids are 0..n-1. *)

val instance : t -> Instance.t
val config : t -> Config.t

val relaxation : t -> Relaxation.t
(** The relaxation behind the last full solve ([start] or {!resolve});
    its [basis] is what {!resolve} warm starts from. *)

val total_utility : t -> float

val internal_of : t -> int -> int option
(** Current internal index of an external id; [None] when the id was
    never issued or its user has left (tombstone). *)

val user_ids : t -> int array
(** External ids of the current population, in internal order — entry
    [i] is the external id of instance user [i]. *)

val join : t -> user_profile -> t * int
(** Adds a user; returns the new session and her {e external} id (a
    reused tombstone when one is free, else a fresh integer). The
    newcomer's row is filled greedily (each slot gets the item of
    maximal marginal SAVG utility against the current configuration,
    respecting no-duplication), followed by one local-search pass over
    her slots. Other users' rows are untouched — the O(n·m·k)
    incremental cost the paper aims for. *)

val leave : t -> int -> t
(** Removes the user with the given external id. Every other user
    keeps her external id (internal indices compact — use
    {!internal_of} after a leave). Raises [Invalid_argument] on an
    unknown or already-left id. *)

val resolve : Svgic_util.Rng.t -> t -> t
(** Full re-optimization of the current population with AVG; the
    external-id remap is preserved. The relaxation re-solve warm
    starts from the session's stored simplex basis when the population
    (and hence the LP shape) is unchanged; otherwise the solver cold
    starts on its own. *)
