(** Social Event Organization (SEO) as an application of SVGIC-ST
    (Section 4.4, "Supporting Social Event Organization").

    Events play the role of items, the [rounds] of a schedule play the
    role of display slots (each attendee joins one event per round,
    never the same event twice), and the event size limit is the
    subgroup size constraint [M]. Attendee-event preferences and
    pairwise companionship utilities map directly onto [p] and [τ]. *)

type event = { name : string }

type shape = { sn : int; sm : int; sk : int; spairs : int }
(** Population signature (users, events, rounds, friend pairs) the
    stored warm basis was built for. *)

type plan = {
  instance : Instance.t;
  config : Config.t;
  events : event array;
  capacity : int;  (** per-(event, round) attendance cap [M] *)
  relax : Relaxation.t;
      (** relaxation behind [config]; carries the simplex basis for
          warm replans *)
  shape : shape;
      (** signature of [instance] when [relax] was solved — {!replan}
          checks the current instance against it and drops the basis
          on mismatch, so a caller never has to know whether the
          population changed shape *)
}

val organize :
  Svgic_util.Rng.t ->
  graph:Svgic_graph.Graph.t ->
  events:event array ->
  rounds:int ->
  capacity:int ->
  pref:float array array ->
  tau:(int -> int -> int -> float) ->
  lambda:float ->
  plan
(** Solves the SEO instance with the SVGIC-ST extension of AVG
    (capacity-capped CSF). Requires
    [capacity * |events| >= n + (rounds-1)*capacity] so a feasible
    schedule exists. *)

val replan : ?instance:Instance.t -> Svgic_util.Rng.t -> plan -> plan
(** Re-draws the schedule: the LP relaxation is re-solved warm from
    the stored basis (near-instant — the old basis is still optimal)
    and only the randomized rounding is re-run. Use to generate
    alternative schedules cheaply.

    [?instance] replans over an updated population (attendees joined
    or left, utilities drifted) while keeping the event list and
    capacity. The replan is {e self-checking}: the stored basis is
    used only when the instance still matches the plan's recorded
    {!shape} (same attendees, events, rounds and friend pairs) —
    after a shape change the solve cold-starts on its own. Raises
    [Invalid_argument] when the new instance's item count does not
    match the event list. *)

val attendees : plan -> round:int -> event:int -> int array
(** Who attends an event in a round. *)

val schedule_of : plan -> user:int -> event array
(** A user's per-round schedule. *)

val total_welfare : plan -> float
val max_event_load : plan -> int
(** Largest attendance of any (event, round) — for capacity checks. *)
