(** Chunked multicore fan-out over OCaml 5 domains kept resident
    between calls — the substrate behind AVG's best-of-N repeats,
    AVG-D's initial candidate sweep, the sharded solve and the serving
    tick.

    Semantics:
    - [0, n) is split into contiguous blocks; block 0 runs on the
      calling domain, the rest on resident worker domains. The first
      fan-out that needs [w] workers starts [w - 1] of them; they
      stay alive, blocked on a condition variable, and later fan-outs
      hand them blocks through a mailbox, so the pool grows to the
      largest worker count any fan-out asked for. A worker's
      [Domain.DLS] state (e.g. the exact LP workspace) lives across
      calls.
    - A fan-out that ran for more than 1,000 times what starting its
      workers cost stops them before it returns: starting them again
      is negligible next to such work, and idle workers tax the serial
      code that follows (below). Short fan-outs — a serving tick,
      AVG-D's initial candidate sweep — keep them.
    - One fan-out at a time holds the resident workers. A fan-out
      that finds them held — nested inside a block, run from a signal
      handler or from another domain — spawns fresh domains and joins
      them before returning instead. A call only waits on workers it
      posted to, so nesting cannot deadlock.
    - A call returns or raises only after every block it started has
      finished, on every exit path.
    - Determinism: [parallel_map] fills slot [i] with [f i], so the
      result array — and any by-index reduction over it — is identical
      for every worker count, including the serial fallback, whichever
      domain ran a block.
    - Serial fallback: when [Domain.recommended_domain_count () = 1]
      (or [~domains:1], or [n <= 1]) the body runs in the calling
      domain, and no worker is ever started.
    - A block that raises is wrapped as {!Worker_failure} (worker id,
      index range, original exception, backtrace) and re-raised after
      every block has finished; when several blocks fail, the first
      failure wins and the count of suppressed ones is logged to
      stderr. A failure to start a worker (e.g. the domain limit)
      raises the original exception; the pool stays usable.

    Costs of resident workers (2-vCPU VM, OCaml 5.1.1):
    - An empty 2-worker fan-out costs 5–30 µs back to back once its
      worker is started (the [pool_fanout] bench row), against
      0.1–0.3 ms when it spawns and joins a domain; a [Domain.spawn]
      alone took 0.1–0.2 ms and its [Domain.join] 0.3–0.7 ms.
    - Idle workers take part in every minor collection of every
      domain (OCaml 5's minor GC stops them all; an idle worker
      answers through its backup thread, which the host must wake). A
      serial, allocation-bound loop paid 10–140 µs more per minor
      collection with one idle worker than alone, varying from run to
      run with the host's wake-up latency (the [pool_idle_gc] bench
      rows). {!shutdown} removes the cost until the next fan-out.
    - [Unix.fork] fails once any domain has ever been created, even
      after it was joined, so {!shutdown} does not re-enable it; start
      subprocesses with [Unix.create_process].

    Callers are responsible for domain safety of [f]: shared state must
    be read-only during the fan-out and shared lazies forced
    beforehand. *)

exception
  Worker_failure of {
    worker : int;  (** failing block (0 = the calling domain) *)
    index_range : int * int;  (** the [lo, hi) slice the block owned *)
    exn : exn;  (** the original exception *)
    backtrace : string;  (** captured at the raise site, inside the worker *)
  }
(** How a worker exception surfaces from every fan-out below (serial
    fallbacks re-raise the original exception unwrapped — there is no
    worker to attribute it to). *)

val available_domains : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val parallel_for : ?domains:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for every [i] in [0, n), fanned out
    over [min domains n] workers ([domains] defaults to
    [available_domains ()]). *)

val parallel_for_local :
  ?domains:int -> int -> local:(unit -> 'l) -> ('l -> int -> unit) -> unit
(** [parallel_for_local n ~local f] is [parallel_for] where each worker
    first builds private scratch [l = local ()] and runs [f l i] over
    its block — the allocation-free way to give every domain its own
    mutable workspace (AVG-D's per-worker candidate scratch). The
    serial fallback builds [local ()] exactly once. *)

val parallel_map : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_map n f] is [| f 0; …; f (n-1) |]. *)

val parallel_map_local :
  ?domains:int -> int -> local:(unit -> 'l) -> ('l -> int -> 'a) -> 'a array
(** [parallel_map_local n ~local f] is [parallel_map] where each worker
    first builds private scratch [l = local ()] and maps [f l i] — the
    way to give every domain its own mutable workspace. *)

val shutdown : unit -> unit
(** Stops and joins the resident workers; the next fan-out starts them
    again. Registered with [at_exit]. Does nothing while a fan-out
    holds the workers, so an [exit] from inside a block cannot
    deadlock. *)
