(** The binary frame layer of {!Wal} and {!Checkpoint}: a frame is
    [[len:u32le][crc:u32le][body]], [crc] the CRC-32 of the [len]-byte
    body. Integers are little endian ([get_u32] reads
    [[0, 0xFFFFFFFF]]), floats IEEE-754 bits. *)

val put_u32 : Bytes.t -> int -> int -> unit
val put_u64 : Bytes.t -> int -> int64 -> unit
val put_f : Bytes.t -> int -> float -> unit
val get_u32 : Bytes.t -> int -> int
val get_u64 : Bytes.t -> int -> int64
val get_f : Bytes.t -> int -> float

val seal : Bytes.t -> int -> int
(** [seal b len] writes the header of the frame whose body is
    [b.[8 .. 8+len-1]] into [b.[0..7]] and returns the body's CRC. *)

val read :
  in_channel -> hdr:Bytes.t -> buf:Bytes.t ref -> pos:int -> size:int ->
  min_len:int -> max_len:int -> (int, string) result
(** Read the frame at byte [pos] of a [size]-byte file, the channel
    standing there: [Ok len] leaves the header in [hdr] and the body in
    [!buf] (grown to [len] if short). A length outside
    [[min_len, max_len]] or past the file is refused before anything
    is read. Errors: ["short frame header"], ["implausible record
    length"], ["short record body"], ["crc mismatch"], ["truncated
    record"] (the file shrank under the read). *)
