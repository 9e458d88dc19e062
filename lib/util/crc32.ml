(* CRC-32 (IEEE, reflected 0xEDB88320), table-driven, one byte per
   step.  The running value is a masked OCaml int: the table fits in a
   256-entry int array and the hot loop is allocation-free. *)

let table : int array =
  let t = Array.make 256 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(i) <- !c
  done;
  t

(* [update] carries the *finalized* checksum between calls: we
   re-invert on entry and invert again on exit, which makes the empty
   input a no-op and lets 0 serve as the initial accumulator. *)

let update_bytes crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update_bytes";
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update_string crc s ~pos ~len =
  update_bytes crc (Bytes.unsafe_of_string s) ~pos ~len

let of_string s = update_string 0 s ~pos:0 ~len:(String.length s)

(* zlib's [crc32_combine]: the CRC of [a ^ b] is the CRC of [a] times
   x^(8 len b), plus the CRC of [b], in GF(2)[x] modulo the reflected
   polynomial ([multmodp]); [x2n.(i)] is x^(2^i), x^1 being bit 30. *)
let multmodp a b =
  let p = ref 0 and b = ref b in
  for i = 31 downto 0 do
    if (a lsr i) land 1 = 1 then p := !p lxor !b;
    b := (!b lsr 1) lxor (if !b land 1 = 1 then 0xEDB88320 else 0)
  done;
  !p

let x2n = Array.make 32 (1 lsl 30)
let () = for i = 1 to 31 do x2n.(i) <- multmodp x2n.(i - 1) x2n.(i - 1) done

let combine crc1 crc2 len2 =
  let p = ref (1 lsl 31) in
  for i = 0 to 59 do
    if (len2 lsr i) land 1 = 1 then p := multmodp x2n.((i + 3) land 31) !p
  done;
  multmodp !p crc1 lxor crc2
