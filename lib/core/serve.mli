(** Online serving engine: a long-lived session over the sharded solve
    state (DESIGN.md §5 "Online serving").

    A VR shopping deployment is not one solve but a stream of small
    changes — users join and leave the session, preferences and social
    utilities drift. Re-running the whole pipeline per change wastes
    the structure the sharded solver already paid for: an event only
    perturbs the shards its users live in, and every untouched shard's
    certified within-shard objective stays exactly valid. The engine
    therefore keeps the partition, the per-shard warm simplex bases and
    the incumbent configuration alive across {e ticks}, and per tick
    re-solves only the touched shards — warm-started, under a per-tick
    latency deadline, through the same per-shard ladder a plan runs
    ({!Shard.solve_one}). An overrunning or faulted shard keeps its
    incumbent when its membership survived and drops to its greedy
    floor when it was reshaped, instead of missing the tick.

    {2 Event model}

    Events are {!submit}ted between ticks and {e coalesced}: multiple
    deltas to the same (user, item) or (edge, item) cell collapse
    last-writer-wins before any solve sees them, so a hot cell costs
    one write per tick no matter how fast it churns. Structural events
    (joins/leaves) are kept in submission order and applied first;
    value deltas are applied to the post-structural population, and a
    delta whose target left in the same tick is dropped (and counted).
    The coalescing path allocates no major-heap words per event — the
    per-event cost of a saturated stream is a hash-table write.

    {2 Ids}

    The API speaks external user ids: the initial population is
    [0 .. n-1] and every join mints the next fresh integer ({!submit}
    returns it). Ids are {e never} reused — a serving trace addresses
    users by ids written down earlier in the trace, so recycling would
    make traces ambiguous. Internal (instance) indices reshuffle on
    every structural tick; use {!internal_of}/{!user_ids} to cross
    over.

    {2 Certificates}

    The engine maintains the sharded bracket incrementally:
    [Σ shard_obj − cut_mass <= objective <= Σ shard_upper + cut_mass].
    A touched shard's upper is the bound of the relaxation its
    re-solve just ran ({!Shard.solved.s_upper}), so it costs no extra
    solve; a shard that degrades or falls back (deadline, failure, an
    injected fault) has none, and the upper reads [infinity] until
    its next clean re-solve. Both sides are recomputed from per-shard
    state in O(shards + cut) per tick — untouched shards contribute
    their stored values. *)

type event =
  | Join of Dynamic.user_profile
      (** the newcomer's profile; its friends and τ callbacks are
          keyed by {e external} ids *)
  | Leave of int  (** external id *)
  | Pref_delta of { user : int; item : int; value : float }
      (** p(user, item) <- value (external id) *)
  | Tau_delta of { u : int; v : int; item : int; value : float }
      (** τ(u, v, item) <- value on the directed edge [(u,v)]
          (external ids); dropped (and counted) when [(u,v)] is not an
          edge of the current graph *)

type t

type tick_stats = {
  tick : int;  (** 1-based tick number ([create]'s initial solve is tick 0) *)
  events_seen : int;  (** submitted since the previous tick *)
  events_applied : int;  (** coalesced writes + structural events applied *)
  events_dropped : int;
      (** dead/unknown targets, non-edges, malformed profiles *)
  shards_touched : int;
  warm_hits : int;
      (** touched shards whose stored basis matched their shape and
          was handed to the re-solve *)
  degraded : int;
      (** touched shards that fell down the degradation ladder
          ({!Shard.solve_one}: deadline expiry, a degraded relaxation,
          a failure or an injected fault) *)
  structural : bool;  (** the tick rebuilt the instance (joins/leaves) *)
  elapsed_s : float;  (** wall time of the tick ({!Svgic_util.Mclock}) *)
  objective : float;  (** total SAVG utility of the incumbent configuration *)
  bound : float;  (** certified lower bracket [Σ shard_obj − cut_mass] *)
  upper : float;
      (** certified upper bracket [Σ shard_upper + cut_mass];
          [infinity] while any shard has no certificate (its last
          solve degraded or fell back) *)
}

val create :
  ?labelling:Shard.labelling ->
  ?rounding:Shard.rounding ->
  ?deadline_s:float ->
  ?domains:int ->
  ?repair_passes:int ->
  Svgic_util.Rng.t ->
  Instance.t ->
  t
(** Builds the session: partitions the instance (default
    [Shard.Components]), solves every shard (tick 0 — also under
    [deadline_s], so a tight SLO degrades rather than blocks startup)
    and stores the per-shard warm state. The instance is adopted: the
    engine mutates its arenas in place on value deltas ([Instance]
    deltas are root-only, so a view argument is materialized first).
    [deadline_s] is the per-tick latency budget; absent, ticks run to
    completion. [rounding] defaults to deterministic AVG-D;
    [repair_passes] (default 2) bounds the per-tick cut-repair sweeps.
    [rng] is adopted as the session's stream: each tick derives
    per-shard child streams via [Rng.split_n], so a trace replayed
    from the same seed is bit-identical for every [domains] value. *)

val submit : t -> event -> int option
(** Queues an event for the next {!tick}; [Some ext] (the minted
    external id) for a [Join], [None] otherwise. O(1), no major-heap
    allocation on the delta paths. *)

val pending_events : t -> int
(** Events submitted since the last tick (before coalescing). *)

val touched_preview : t -> int array
(** Shard ids the pending {e value deltas} would touch, sorted
    (structural events excluded — their shard is only known after the
    rebuild). This is the planning half of the tick hot path, exposed
    so the allocation guard can measure coalesce + touched-set without
    paying for solves. Deltas with dead targets are ignored here and
    counted at {!tick}. *)

val tick : t -> tick_stats
(** Applies everything pending and re-establishes the bracket:
    structural rebuild (if any) → value deltas → warm re-solve of
    touched shards (fanned out over [domains], deterministic by
    index) → cut repair over touched cut endpoints → incremental
    bracket update. A tick with nothing pending is O(shards + cut)
    and re-solves nothing. *)

val instance : t -> Instance.t
val config : t -> Config.t
(** Incumbent configuration (rows indexed by {e internal} id). *)

val objective : t -> float
val bound : t -> float

val upper : t -> float
(** See {!tick_stats.upper}. *)

val num_users : t -> int
val num_shards : t -> int
(** Shard slots, including emptied husks kept so shard ids stay
    stable across leaves. *)

val tick_count : t -> int
(** Ticks completed so far (the initial solve is tick 0). *)

val events_total : t -> int
(** Events accepted by {!submit} since engine creation — together
    with {!tick_count} this names the exact prefix of a trace the
    engine has consumed, which is how a trace-driven resume after
    {!recover} skips already-applied lines. *)

(** {2 Durability}

    With durability enabled the engine write-ahead-logs every
    {!submit} and every {!tick} boundary ({!Wal}) and periodically
    checkpoints its full solve state ({!Checkpoint}); {!recover}
    rebuilds a crashed engine from the newest valid checkpoint plus
    the WAL suffix, and {!audit} proves the recovered bracket before
    the engine takes traffic. See DESIGN.md §5 "Durability &
    recovery". *)

type durability = {
  dir : string;  (** holds [wal.svgic] plus [ckpt-*.svgic] files *)
  fsync : Wal.fsync_policy;
  checkpoint_every : int;  (** ticks between checkpoints (min 1) *)
  retain : int;  (** checkpoints kept on disk (min 1) *)
}

val enable_durability : t -> durability -> unit
(** Attach a WAL + checkpoint policy to a live engine and write the
    initial checkpoint. The directory must be fresh, or hold a WAL
    from a previous life of this engine (its torn tail is truncated
    and seqnos continue). Raises [Invalid_argument] when durability
    is already enabled, when events are pending (tick first — the WAL
    must never miss an accepted event), or when the directory holds
    checkpoints but no WAL (use {!recover} instead). *)

val disable_durability : t -> unit
(** Close the WAL and stop checkpointing; a no-op when disabled. *)

val checkpoint_failures : t -> int
(** Periodic checkpoints that failed to write (counted, not fatal —
    the engine still has its previous checkpoint plus the WAL). *)

val wal_bytes : t -> int
(** Bytes appended to the WAL through this engine's writer. *)

val checkpoint : t -> string
(** Force a checkpoint now; returns its path. Raises on I/O failure
    or when durability is disabled. *)

val restore :
  ?rounding:Shard.rounding ->
  ?deadline_s:float ->
  ?domains:int ->
  ?repair_passes:int ->
  Checkpoint.snapshot ->
  t
(** Rebuild an engine from a validated snapshot, durability detached.
    Bit-carried state (objectives, bounds, cut mass, RNG cursor,
    warm bases) is restored verbatim; the cut tables and the
    ext→internal map are re-derived. The solver knobs are not part of
    the snapshot and must be re-supplied (defaults as {!create}). *)

type recovery = {
  checkpoint_path : string;  (** the checkpoint recovery loaded *)
  checkpoint_seqno : int64;  (** WAL seqno that checkpoint reflected *)
  checkpoints_skipped : (string * string) list;
      (** newer-but-corrupt checkpoints recovery fell past, with the
          validation error of each *)
  replayed_events : int;  (** WAL events re-submitted *)
  replayed_ticks : int;  (** WAL tick boundaries re-run *)
  wal_records : int;  (** valid WAL records scanned in total *)
  torn_bytes : int;  (** bytes truncated off the WAL's torn tail *)
}

val recover :
  ?rounding:Shard.rounding ->
  ?deadline_s:float ->
  ?domains:int ->
  ?repair_passes:int ->
  ?fsync:Wal.fsync_policy ->
  ?checkpoint_every:int ->
  ?retain:int ->
  dir:string ->
  unit ->
  (t * recovery, string) result
(** Crash recovery: load the newest valid checkpoint in [dir]
    (falling back to older ones on corruption), {!restore}, replay
    the WAL suffix past the checkpoint's seqno (events re-submit,
    tick records re-run {!tick}; trailing events after the last tick
    record stay pending, exactly as they were live), truncate any
    torn WAL tail, re-attach durability with the given policy and
    write a fresh checkpoint. The result is bit-identical to the
    state the crashed engine held at its last durable WAL position —
    continue feeding the same stream and every subsequent tick
    matches an uninterrupted run. Callers should {!audit} before
    taking traffic. *)

type audit_report = {
  audit_ok : bool;
  bad_shards : int list;
      (** shards whose stored within-shard objective disagrees with a
          recomputation from the arenas (pre-repair) *)
  cut_drift : float;
  objective_drift : float;
  bracket_ok : bool;
      (** [bound <= objective <= upper] on recomputed values *)
  structure_ok : bool;
      (** label ranges, member partition, ext-id bijection *)
  repaired : int list;  (** shards demoted to a fresh re-solve *)
}

val audit : ?repair:bool -> ?tol:float -> t -> audit_report
(** Recompute the objective and cut mass from the arenas and check
    them — plus the bracket invariant
    [Σ shard_obj − cut_mass ≤ obj ≤ Σ upper + cut_mass] — against the
    engine's stored values ([tol] relative, default 1e-6). With
    [~repair:true], a failing audit rebuilds the cut tables, demotes
    every failing shard (all non-empty shards if only global terms
    drifted) to a cold re-solve and re-checks; [repaired] lists the
    demoted shards. Read-only when the audit passes. *)

val fingerprint : t -> int
(** CRC-32 over every bit of observable solve state (dimensions,
    incumbent rows, labels, external ids, counters, bracket terms,
    both arenas). Equal fingerprints ⇒ the engines serve identical
    configurations; the kill-matrix test compares a recovered engine
    against an uninterrupted run with this. *)

val user_ids : t -> int array
(** External ids in internal order (entry [i] belongs to instance
    user [i]). *)

val internal_of : t -> int -> int option
(** Internal index of an external id; [None] once the user left. *)

(** {2 Trace format}

    Newline-delimited events, replayed by [svgic serve]:
    {v
# comment (and blank lines) are skipped
tick
pref <user> <item> <value>
tau <u> <v> <item> <value>
leave <user>
join <p0,p1,...,pm-1> [<friend>:<tau_out>:<tau_in> ...]
    v}
    [join] lists the newcomer's per-item preferences and, per friend,
    a constant τ per direction across items. User ids are external;
    a join's id is implied by mint order (first join of the trace gets
    [n], the next [n+1], ...). *)

type line = Line_event of event | Line_tick | Line_blank

val parse_line : string -> (line, string) result
(** Parses one trace line; [Error] carries a human-readable reason. *)
