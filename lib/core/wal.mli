(** Write-ahead log for the serving layer.

    Every accepted {!Serve} event and every tick boundary is appended
    as a length-prefixed, CRC32-guarded binary record carrying a
    monotonically increasing sequence number, so a crashed server can
    replay the suffix past its last checkpoint and land on the exact
    state an uninterrupted run would have reached.

    {2 File format}

    A text header line [svgic-wal 1 m <items>\n], then one frame per
    record, [[len:u32le][crc:u32le][seqno:u64le | kind:u8 | payload]]
    — the frame layer {!Checkpoint} shares — with [crc] the CRC-32 of
    the [len]-byte body and floats as IEEE-754 bits, so replay is bit
    identical. Seqnos start at 1 and increase by exactly 1. A torn
    tail — a partial record left by a crash mid-write — fails the
    length or CRC check and is detected (and, on {!repair} or
    {!open_append}, truncated) without harming the valid prefix.

    Join events are logged in {e materialized} form: the caller's
    [tau_out]/[tau_in] closures are evaluated once per declared friend
    over all [m] items at append time, so the log never depends on
    closure state that would be unrecoverable after a crash. *)

type fsync_policy =
  | Every_event  (** fsync after every appended record — safest, slowest *)
  | Every_tick  (** fsync at tick boundaries — events within the
                    crashed tick may be lost, committed ticks never *)
  | Off  (** never fsync — durability limited to OS page-cache flush *)

type join = {
  jpref : float array;  (** length [m] preference row of the joiner *)
  jfriends : (int * float array * float array) array;
      (** per declared friend: external id, materialized
          [tau_out]/[tau_in] rows of length [m] *)
}

type event =
  | Join of join
  | Leave of int
  | Pref of { user : int; item : int; value : float }
  | Tau of { u : int; v : int; item : int; value : float }

type record = Event of event | Tick of int

(** {2 Writing} *)

type writer

val create : path:string -> m:int -> policy:fsync_policy -> writer
(** Create (truncating any existing file) a fresh WAL whose next
    seqno is 1. Raises [Sys_error]/[Unix.Unix_error] on I/O failure. *)

val append : writer -> record -> int64
(** Append one record and return its seqno. Applies the fsync policy:
    [Every_event] syncs after each record, [Every_tick] after [Tick]
    records only. Fault sites: ["wal_append"] (crash after a partial
    body write — leaves a torn tail) and ["wal_fsync"] (crash before
    the sync reaches the disk), both indexed by seqno. *)

val last_seqno : writer -> int64
(** Seqno of the most recently appended (or recovered) record; [0L]
    for a fresh log. *)

val items : writer -> int
(** The [m] recorded in the header. *)

val bytes_written : writer -> int
(** Total payload + framing bytes appended through this writer. *)

val close : writer -> unit

(** {2 Scanning and recovery} *)

type scan = {
  records : int;  (** CRC-valid records read *)
  events : int;
  ticks : int;
  scan_m : int;  (** [m] from the header *)
  first_seqno : int64;  (** [0L] when the log is empty *)
  last_seqno : int64;  (** [0L] when the log is empty *)
  valid_end : int;  (** byte offset one past the last valid record *)
  file_size : int;
  torn : string option;
      (** [Some reason] when [valid_end < file_size]: the tail failed
          framing, CRC, seqno monotonicity, or payload decode *)
}

val scan : ?f:(int64 -> record -> unit) -> string -> (scan, string) result
(** Stream every valid record (in order) through [f] and report the
    log's health. [Error] only for an unreadable file or bad header —
    a torn tail is reported in [scan.torn], not as [Error]. Decoded
    payloads are validated structurally (row lengths against the
    header [m], non-negative ids); a CRC-valid but malformed record
    stops the scan as torn. *)

val repair : string -> (scan, string) result
(** {!scan}, then truncate the file at [valid_end], dropping the torn
    tail. Returns the post-repair scan summary. *)

val open_append :
  path:string -> policy:fsync_policy -> ?min_seqno:int64 -> unit ->
  (writer * scan, string) result
(** Re-open an existing WAL for appending: scan it, truncate any torn
    tail, and continue seqnos from [max last_seqno min_seqno].
    [min_seqno] (default [0L]) guards against a lost unsynced tail:
    recovery passes the checkpoint's seqno so fresh appends never
    reuse a seqno the checkpoint already covers. *)
