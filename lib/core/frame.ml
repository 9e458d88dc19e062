(* [len:u32le][crc:u32le][body] frames, shared by the WAL and the
   checkpoints.  See the .mli. *)

module Crc32 = Svgic_util.Crc32

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let put_u64 b off v = Bytes.set_int64_le b off v
let put_f b off v = Bytes.set_int64_le b off (Int64.bits_of_float v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let get_u64 b off = Bytes.get_int64_le b off
let get_f b off = Int64.float_of_bits (Bytes.get_int64_le b off)

let seal b len =
  let crc = Crc32.update_bytes 0 b ~pos:8 ~len in
  put_u32 b 0 len;
  put_u32 b 4 crc;
  crc

let read ic ~hdr ~buf ~pos ~size ~min_len ~max_len =
  if size - pos < 8 then Error "short frame header"
  else
    match really_input ic hdr 0 8 with
    | exception End_of_file -> Error "truncated record"
    | () ->
        let len = get_u32 hdr 0 in
        if len < min_len || len > max_len then Error "implausible record length"
        else if pos + 8 + len > size then Error "short record body"
        else begin
          if Bytes.length !buf < len then
            buf := Bytes.create (max len (2 * Bytes.length !buf));
          match really_input ic !buf 0 len with
          | exception End_of_file -> Error "truncated record"
          | () ->
              if Crc32.update_bytes 0 !buf ~pos:0 ~len <> get_u32 hdr 4 then
                Error "crc mismatch"
              else Ok len
        end
