(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) over byte
    ranges.

    The running checksum is carried as a plain OCaml [int] in
    [0, 0xFFFFFFFF] so streaming updates allocate nothing (no boxed
    [int32]).  [update_*] composes: feeding a buffer in several slices
    produces the same value as one pass, and the empty-input checksum
    is [0], so [0] doubles as the initial accumulator.

    Used by the frames of {!Svgic.Wal} and {!Svgic.Checkpoint}, the
    checkpoint's end frame, and [Serve.fingerprint]. *)

val update_bytes : int -> bytes -> pos:int -> len:int -> int
(** [update_bytes crc b ~pos ~len] extends [crc] with [b.[pos..pos+len-1]].
    @raise Invalid_argument if the range is out of bounds. *)

val update_string : int -> string -> pos:int -> len:int -> int
(** [update_string] is {!update_bytes} over an immutable buffer. *)

val of_string : string -> int
(** [of_string s = update_string 0 s ~pos:0 ~len:(String.length s)].
    The check value [of_string "123456789"] is [0xCBF43926]. *)

val combine : int -> int -> int -> int
(** [combine (of_string a) (of_string b) (String.length b)] is
    [of_string (a ^ b)], in O(log (length b)) without reading [b]
    again: a checkpoint binds its whole file from its frames' CRCs. *)
