(** Deterministic fault injection for the supervision layer.

    The chaos harness behind the robustness tests and the CI chaos
    job: supervised code paths consult named injection {e sites}, and
    a globally configured seed decides — purely as a function of
    [(seed, site, index)] — whether a fault fires there and of which
    kind. The same seed therefore replays the exact same fault
    pattern on every run, worker count, and machine, which is what
    lets a test assert "exactly the injected shards were degraded".

    The sites: the per-shard ladder [Shard.solve_one], which applies
    one rule to every kind ({!kind}), polls ["shard.solve"] at the
    shard index in a plan and ["serve.shard"] at
    [tick·8191 + shard id] in a serving tick; the WAL polls
    ["wal_append"] and ["wal_fsync"] by seqno; checkpoints poll
    ["checkpoint_write"] and ["checkpoint_rename"].

    Injection is {e opt-in twice}: nothing fires unless (1) a harness
    calls {!configure} (or {!init_from_env} finds [SVGIC_FAULT_SEED]
    in the environment) and (2) the code path hosting the site
    actually polls {!at}. Ordinary library entry points never poll,
    so a configured process still runs every unsupervised code path
    untouched — the CI chaos job runs the whole test suite with the
    environment set and only the fault-aware suites change
    behaviour. *)

type kind =
  | Timeout  (** hand the victim an already-expired deadline token *)
  | Nan  (** poison the victim's iterate with a NaN *)
  | Crash  (** raise {!Injected} inside the victim *)

exception Injected of string
(** The exception the [Crash] kind raises at a site. *)

val configure : seed:int -> rate:float -> kinds:kind list -> unit
(** Arm the harness: every subsequent {!at} fires with probability
    [rate] (deterministically, per site/index), drawing the kind
    uniformly from [kinds]. Replaces any previous configuration. *)

val restrict_sites : string list -> unit
(** Narrow the armed configuration so only the listed sites fire —
    {!at} returns [None] at every other site. A no-op while disarmed;
    {!configure} resets the restriction. The durability tests use this
    to aim a [Crash] at exactly one of [wal_append] / [wal_fsync] /
    [checkpoint_write] / [checkpoint_rename] without also tripping the
    shard-ladder sites. *)

val clear : unit -> unit
(** Disarm; {!at} returns [None] everywhere. *)

val enabled : unit -> bool

val init_from_env : unit -> bool
(** Arm from the environment when [SVGIC_FAULT_SEED] is set:
    [SVGIC_FAULT_RATE] (default [0.3]), [SVGIC_FAULT_KINDS] (a
    comma-separated subset of [timeout,nan,crash]; default all
    three), and [SVGIC_FAULT_SITES] (a comma-separated site
    allowlist; default: all sites) complete the configuration.
    Returns whether the harness
    is now enabled. Called by the CLI and the chaos tests — never
    implicitly at module load. *)

val env_seed : unit -> int option
(** The parsed [SVGIC_FAULT_SEED], if present — the chaos tests use
    it as their seed-matrix base without arming the harness. *)

val at : site:string -> index:int -> kind option
(** [at ~site ~index] — does a fault fire at occurrence [index] of
    injection point [site]? Pure in [(seed, site, index)]; [None]
    whenever the harness is disarmed. Safe to call from any domain
    (the configuration is read-only once armed). *)
