(** Checkpointed {!Serve} solve state, format 2: a magic line
    [svgic-checkpoint 2\n], then the WAL's frames
    [[len:u32le][crc:u32le][body]], each body a kind byte and whole
    little-endian elements of one section (floats as IEEE-754 bits, so
    every value round-trips bit for bit; bodies of at most 64 KiB,
    streamed from one reused scratch and decoded straight into the
    arenas), then an end frame holding the CRC-32 of every earlier
    byte, so frames spliced from two checkpoints do not load. {!write}
    goes temp file + [fsync] + atomic rename + directory [fsync], so a
    crash mid-checkpoint never replaces a good checkpoint with a torn
    one.

    Fault sites (both indexed by the WAL seqno): ["checkpoint_write"]
    crashes after the magic line, leaving a torn temp file;
    ["checkpoint_rename"] crashes after the temp file is complete but
    before it is renamed into place. *)

type shard_snap = {
  s_obj : float;
  s_upper : float;
  s_degraded : bool;
  s_freshened : bool;
  s_warm_n : int;
  s_warm_pairs : int;
  s_warm : int array option;
      (** warm-basis statuses ([Revised_simplex.vbasis_entries], in
          [[0, 255]]) *)
}

type snapshot = {
  inst : Instance.t;
  assign : int array array;
  label : int array;
  shards : shard_snap array;
  ext_of : int array;
  next_ext : int;
  tick_no : int;
  events_total : int;
      (** events accepted by [Serve.submit] since engine creation —
          lets a trace-driven resume skip the consumed prefix *)
  wal_seqno : int64;  (** last WAL seqno reflected in this state *)
  cut_mass : float;
  objective_v : float;
  bound_v : float;
  upper_v : float;
  rng : Svgic_util.Rng.t;
      (** stored as [Random.State.to_binary_string]; [Serve.restore]
          adopts it, as it adopts the arrays *)
}

val ensure_dir : string -> unit
(** [mkdir -p] for the durability directory. *)

val write : dir:string -> retain:int -> snapshot -> string
(** Write a checkpoint into [dir] (created if missing) and return its
    path. After the atomic rename, checkpoints beyond the newest
    [retain] and any stray temp files are removed. Raises on I/O
    failure or at an armed fault site — the caller decides whether a
    failed checkpoint is fatal (it is not for a live server, which
    still has its previous checkpoint plus the WAL). *)

val list_files : string -> (string * int * int64) list
(** Checkpoint files in [dir] as [(path, tick, seqno)], oldest
    first. Ignores foreign and temp files; [] for a missing dir. *)

val load : string -> (snapshot, string) result
(** Decode and validate one checkpoint file. Never raises: a failure
    is [Error "byte N: ..."] (an unopenable file gives the system
    error); another format is refused as ["unsupported checkpoint
    version V"]. Every frame's length, CRC and kind, and every count
    against the bytes left before anything is sized by it; then meta
    ranges, finite bracket terms, [Instance.validate], edges (in range,
    no self-loop, strictly increasing [(u, v)]), items, labels, unique
    external ids below [next_ext], shard records and warm lengths, the
    RNG state, the end frame's CRC and no trailing bytes. *)

val load_latest :
  string -> (string * snapshot * (string * string) list, string) result
(** Load the newest valid checkpoint in [dir], falling back to older
    ones when validation fails. Returns [(path, snapshot, skipped)]
    where [skipped] lists newer-but-corrupt files with their decode
    errors; [Error] when the directory holds no loadable checkpoint. *)
