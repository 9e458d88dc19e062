(* Checkpoint files, format 2: a magic line, then {!Frame}s of fixed-
   width sections and an end frame binding every earlier byte. See the
   .mli for the format and the publication protocol. *)

module Crc32 = Svgic_util.Crc32
module Fault = Svgic_util.Fault
module Rng = Svgic_util.Rng
module Graph = Svgic_graph.Graph
module FA = Float.Array

type shard_snap = {
  s_obj : float;
  s_upper : float;
  s_degraded : bool;
  s_freshened : bool;
  s_warm_n : int;
  s_warm_pairs : int;
  s_warm : int array option;
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
  wal_seqno : int64;
  cut_mass : float;
  objective_v : float;
  bound_v : float;
  upper_v : float;
  rng : Rng.t;
}

(* Sections in file order, by kind byte:
     'M' meta, one element: ten i64 (tick, seqno, events, next_ext,
         nshards, n, m, k, edges, RNG state length), then five f64
         (lambda, cut mass, objective, bound, upper)
     'R' the RNG state ([Random.State.to_binary_string]), u8 each
     'P' preferences, f64 x n*m       'E' edges (u, v), u32 pairs
     'T' tau, f64 x edges*m           'A' assignment, u32 x n*k
     'L' labels, u32 x n              'X' external ids, u32 x n
     then per shard: 'S' one record (f64 obj, f64 upper, i64 warm_n,
         i64 warm_pairs, i64 warm length or -1 for none, u8 flags: 1
         degraded, 2 freshened), then 'W' its warm-basis entries, u8
     'Z' end: u32 CRC-32 of every earlier byte of the file *)
let version = 2
let magic = "svgic-checkpoint "
let meta_width = 120
let shard_width = 41

(* Largest frame body: the writer's scratch and the reader's buffer. *)
let max_body = 65536

(* ---- small helpers ----------------------------------------------- *)

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* ---- listing ----------------------------------------------------- *)

let list_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun nm ->
             match
               Scanf.sscanf nm "ckpt-%d-%Ld.svgic%!" (fun t s -> (t, s))
             with
             | t, s -> Some (Filename.concat dir nm, t, s)
             | exception _ -> None)
      |> List.sort (fun (_, t1, s1) (_, t2, s2) -> compare (t1, s1) (t2, s2))

(* ---- writing ----------------------------------------------------- *)

(* [b]: one frame, header included; [crc]: of every byte written. *)
type sink = { oc : out_channel; b : Bytes.t; mutable crc : int }

let emit s len =
  let body = Frame.seal s.b len in
  s.crc <- Crc32.combine (Crc32.update_bytes s.crc s.b ~pos:0 ~len:8) body len;
  output s.oc s.b 0 (8 + len)

(* [count] elements of [width] bytes, [put b off i] encoding element
   [i] at [b.[off..]], in as few frames of [kind] as hold them. *)
let section s kind ~width count put =
  let per = (max_body - 1) / width in
  let i = ref 0 in
  while !i < count do
    let c = min per (count - !i) in
    Bytes.set s.b 8 kind;
    for j = 0 to c - 1 do
      put s.b (9 + (j * width)) (!i + j)
    done;
    emit s (1 + (c * width));
    i := !i + c
  done

let put_u32 b off v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Checkpoint.write: id outside u32";
  Frame.put_u32 b off v

let write ~dir ~retain snap =
  ensure_dir dir;
  let name =
    Printf.sprintf "ckpt-%012d-%016Ld.svgic" snap.tick_no snap.wal_seqno
  in
  let path = Filename.concat dir name in
  let tmp = path ^ ".tmp" in
  let idx = Int64.to_int snap.wal_seqno land max_int in
  let oc = open_out_bin tmp in
  let closed = ref false in
  let close_now () =
    if not !closed then begin
      closed := true;
      close_out oc
    end
  in
  Fun.protect ~finally:(fun () -> if not !closed then close_out_noerr oc)
  @@ fun () ->
  let header = Printf.sprintf "%s%d\n" magic version in
  output_string oc header;
  (match Fault.at ~site:"checkpoint_write" ~index:idx with
  | Some Fault.Crash ->
      (* simulate a crash mid-checkpoint: a torn temp file remains *)
      flush oc;
      close_now ();
      raise (Fault.Injected "checkpoint_write")
  | Some _ | None -> ());
  let s = { oc; b = Bytes.create (8 + max_body); crc = Crc32.of_string header } in
  let inst = snap.inst in
  let n = Instance.n inst and m = Instance.m inst and k = Instance.k inst in
  let ne = Instance.num_edges inst in
  let rng = Random.State.to_binary_string snap.rng in
  section s 'M' ~width:meta_width 1 (fun b off _ ->
      List.iteri
        (fun i v -> Frame.put_u64 b (off + (8 * i)) v)
        (Int64.of_int snap.tick_no :: snap.wal_seqno
        :: List.map Int64.of_int
             [ snap.events_total; snap.next_ext; Array.length snap.shards; n;
               m; k; ne; String.length rng ]);
      List.iteri
        (fun i v -> Frame.put_f b (off + 80 + (8 * i)) v)
        [ Instance.lambda inst; snap.cut_mass; snap.objective_v; snap.bound_v;
          snap.upper_v ]);
  section s 'R' ~width:1 (String.length rng) (fun b off i ->
      Bytes.set b off rng.[i]);
  section s 'P' ~width:8 (n * m) (fun b off i ->
      Frame.put_f b off (Instance.pref inst (i / m) (i mod m)));
  let eu = Instance.edge_u inst and ev = Instance.edge_v inst in
  section s 'E' ~width:8 ne (fun b off e ->
      put_u32 b off (eu e);
      put_u32 b (off + 4) (ev e));
  section s 'T' ~width:8 (ne * m) (fun b off i ->
      Frame.put_f b off (Instance.tau_edge inst (i / m) (i mod m)));
  section s 'A' ~width:4 (n * k) (fun b off i ->
      put_u32 b off snap.assign.(i / k).(i mod k));
  section s 'L' ~width:4 n (fun b off u -> put_u32 b off snap.label.(u));
  section s 'X' ~width:4 n (fun b off u -> put_u32 b off snap.ext_of.(u));
  Array.iter
    (fun sh ->
      let warm = Option.value sh.s_warm ~default:[||] in
      section s 'S' ~width:shard_width 1 (fun b off _ ->
          Frame.put_f b off sh.s_obj;
          Frame.put_f b (off + 8) sh.s_upper;
          List.iteri
            (fun i v -> Frame.put_u64 b (off + 16 + (8 * i)) (Int64.of_int v))
            [ sh.s_warm_n; sh.s_warm_pairs;
              (if sh.s_warm = None then -1 else Array.length warm) ];
          Bytes.set_uint8 b (off + 40)
            (Bool.to_int sh.s_degraded lor (2 * Bool.to_int sh.s_freshened)));
      section s 'W' ~width:1 (Array.length warm) (fun b off i ->
          if warm.(i) < 0 || warm.(i) > 255 then
            invalid_arg "Checkpoint.write: warm entry outside u8";
          Bytes.set_uint8 b off warm.(i)))
    snap.shards;
  (* the end frame's CRC covers every byte written so far *)
  let crc = s.crc in
  section s 'Z' ~width:4 1 (fun b off _ -> Frame.put_u32 b off crc);
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_now ();
  (match Fault.at ~site:"checkpoint_rename" ~index:idx with
  | Some Fault.Crash ->
      (* complete temp file exists, but was never renamed into place *)
      raise (Fault.Injected "checkpoint_rename")
  | Some _ | None -> ());
  Sys.rename tmp path;
  fsync_dir dir;
  (* retention: drop all but the newest [retain], plus stray temps *)
  let files = list_files dir in
  let ndrop = List.length files - max 1 retain in
  List.iteri
    (fun i (p, _, _) ->
      if i < ndrop then try Sys.remove p with Sys_error _ -> ())
    files;
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun nm ->
          if Filename.check_suffix nm ".tmp" then
            try Sys.remove (Filename.concat dir nm) with Sys_error _ -> ())
        names);
  path

(* ---- loading ----------------------------------------------------- *)

(* Every decode failure, as the file offset it concerns and a message. *)
exception Corrupt of int * string

let bad at fmt = Printf.ksprintf (fun msg -> raise (Corrupt (at, msg))) fmt

(* [pos]: offset of the next frame; [body]: of the current frame's
   body; [sum]: CRC-32 of every byte before [pos]. *)
type source = {
  ic : in_channel; size : int; hdr : Bytes.t; buf : Bytes.t ref;
  mutable pos : int; mutable body : int; mutable sum : int;
}

let kind_name = function
  | 'M' -> "meta" | 'R' -> "rng" | 'P' -> "pref" | 'E' -> "edge"
  | 'T' -> "tau" | 'A' -> "assign" | 'L' -> "label" | 'X' -> "ext id"
  | 'S' -> "shard" | 'W' -> "warm basis" | 'Z' -> "end" | _ -> "unknown"

(* The next frame, which must be of [kind]; returns its body length. *)
let next r kind =
  match
    Frame.read r.ic ~hdr:r.hdr ~buf:r.buf ~pos:r.pos ~size:r.size ~min_len:2
      ~max_len:max_body
  with
  | Error e -> bad r.pos "%s (expected a %s frame)" e (kind_name kind)
  | Ok len ->
      let got = Bytes.get !(r.buf) 0 in
      if got <> kind then
        bad r.pos "%s frame where a %s frame belongs" (kind_name got)
          (kind_name kind);
      r.sum <-
        Crc32.combine
          (Crc32.update_bytes r.sum r.hdr ~pos:0 ~len:8)
          (Frame.get_u32 r.hdr 4) len;
      r.body <- r.pos + 8;
      r.pos <- r.pos + 8 + len;
      len

(* Decode [count] elements of [width] bytes through [get b off i]. *)
let read_section r kind ~width count get =
  let i = ref 0 in
  while !i < count do
    let len = next r kind in
    let c = (len - 1) / width in
    if (len - 1) mod width <> 0 || c > count - !i then
      bad r.body "%s frame of %d bytes does not hold whole elements of the \
                  %d left" (kind_name kind) len (count - !i);
    for j = 0 to c - 1 do
      get !(r.buf) (1 + (j * width)) (!i + j)
    done;
    i := !i + c
  done

(* The next frame, of [kind] and one [width]-byte element: the buffer,
   the element at offset 1 (the body at file offset [r.body]). *)
let one r kind width =
  if next r kind <> 1 + width then
    bad r.body "%s frame is not one %d-byte element" (kind_name kind) width;
  !(r.buf)

let read_header r =
  let s = really_input_string r.ic (min r.size 64) in
  let ml = String.length magic in
  match String.index_opt s '\n' with
  | Some nl when nl > ml && String.sub s 0 ml = magic -> (
      match int_of_string_opt (String.sub s ml (nl - ml)) with
      | Some v when v = version ->
          seek_in r.ic (nl + 1);
          r.pos <- nl + 1;
          r.sum <- Crc32.update_string 0 s ~pos:0 ~len:(nl + 1)
      | Some v when v >= 0 ->
          bad ml "unsupported checkpoint version %d (this build reads %d)" v
            version
      | Some _ | None -> bad ml "bad checkpoint header")
  | Some _ | None -> bad 0 "not a svgic-checkpoint file"

let decode r =
  read_header r;
  let b = one r 'M' meta_width and meta = r.body + 1 in
  let ints = Array.init 10 (fun i -> Frame.get_u64 b (1 + (8 * i))) in
  let floats = Array.init 5 (fun i -> Frame.get_f b (81 + (8 * i))) in
  Array.iteri
    (fun i v ->
      if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
      then bad (meta + (8 * i)) "negative meta field %Ld" v)
    ints;
  let int i = Int64.to_int ints.(i) in
  let nshards = int 4 and n = int 5 and m = int 6 and k = int 7 in
  let ne = int 8 and next_ext = int 3 and lambda = floats.(0) in
  if m < 1 || k < 1 || k > m then bad (meta + 48) "need 1 <= k <= m";
  if not (Float.is_finite lambda && 0.0 <= lambda && lambda <= 1.0) then
    bad (meta + 80) "lambda %g outside [0,1]" lambda;
  if not (Array.for_all Float.is_finite (Array.sub floats 1 3)) then
    bad (meta + 88) "non-finite bracket term";
  if Float.is_nan floats.(4) then bad (meta + 112) "NaN upper bound";
  (* Every count against the bytes left, before anything is sized by
     it: [count * per] elements of [width] bytes. *)
  let left = ref (r.size - r.pos) in
  List.iter
    (fun (what, count, per, width) ->
      if count > !left / width / per then
        bad meta "%d x %d %s entries overrun the %d bytes left" count per what
          !left;
      left := !left - (count * per * width))
    [ ("rng", int 9, 1, 1); ("pref", n, m, 8); ("edge", ne, 1, 8);
      ("tau", ne, m, 8); ("assign", n, k, 4); ("label", n, 1, 4);
      ("ext id", n, 1, 4); ("shard", nshards, 1, shard_width) ];
  let at = r.pos and st = Bytes.create (int 9) in
  read_section r 'R' ~width:1 (int 9) (fun b off i -> Bytes.set st i (Bytes.get b off));
  let rng =
    try Random.State.of_binary_string (Bytes.unsafe_to_string st)
    with Failure _ -> bad at "RNG state not accepted"
  in
  let utilities kind what count =
    let a = FA.create count in
    read_section r kind ~width:8 count (fun b off i ->
        let x = Frame.get_f b off in
        if not (Float.is_finite x && x >= 0.0) then
          bad (r.body + off) "%s %g not finite and non-negative" what x;
        FA.set a i x);
    a
  in
  let ids ?seen kind what count bound =
    let a = Array.make count 0 in
    read_section r kind ~width:4 count (fun b off i ->
        let v = Frame.get_u32 b off in
        if v >= bound then bad (r.body + off) "%s %d outside [0,%d)" what v bound;
        Option.iter
          (fun h ->
            if Hashtbl.mem h v then bad (r.body + off) "duplicate %s %d" what v;
            Hashtbl.add h v ())
          seen;
        a.(i) <- v);
    a
  in
  let pref = utilities 'P' "pref" (n * m) in
  let eu = Array.make ne 0 and ev = Array.make ne 0 in
  read_section r 'E' ~width:8 ne (fun b off e ->
      let u = Frame.get_u32 b off and v = Frame.get_u32 b (off + 4) in
      if u >= n || v >= n || u = v then
        bad (r.body + off) "edge (%d,%d): self-loop or endpoint outside [0,%d)"
          u v n;
      if e > 0 && (eu.(e - 1) > u || (eu.(e - 1) = u && ev.(e - 1) >= v)) then
        bad (r.body + off) "edge (%d,%d) out of (u, v) order" u v;
      eu.(e) <- u;
      ev.(e) <- v);
  let tau = utilities 'T' "tau" (ne * m) in
  let inst =
    Instance.of_flat ~graph:(Graph.of_edge_arrays ~n eu ev) ~m ~k ~lambda
      ~pref ~tau
  in
  (match Instance.validate inst with
  | Ok () -> ()
  | Error vs ->
      bad meta "instance: %s" (Instance.violation_to_string (List.hd vs)));
  let items = ids 'A' "assign item" (n * k) m in
  let label = ids 'L' "label" n nshards in
  let ext_of = ids ~seen:(Hashtbl.create ((2 * n) + 16)) 'X' "ext id" n next_ext in
  let shard s =
    let b = one r 'S' shard_width and at = r.body + 1 in
    let s_obj = Frame.get_f b 1 and s_upper = Frame.get_f b 9 in
    let wl = Frame.get_u64 b 33 and flags = Bytes.get_uint8 b 41 in
    if not (Float.is_finite s_obj) then bad at "shard %d: non-finite objective" s;
    if Float.is_nan s_upper then bad (at + 8) "shard %d: NaN upper" s;
    if Int64.compare wl (-1L) < 0 || Int64.compare wl (Int64.of_int !left) > 0
    then bad (at + 32) "shard %d: warm length %Ld overruns the file" s wl;
    if flags > 3 then bad (at + 40) "shard %d: bad flags %d" s flags;
    let sh =
      { s_obj; s_upper; s_degraded = flags land 1 <> 0;
        s_freshened = flags land 2 <> 0;
        s_warm_n = Int64.to_int (Frame.get_u64 b 17);
        s_warm_pairs = Int64.to_int (Frame.get_u64 b 25); s_warm = None }
    in
    if wl < 0L then sh
    else begin
      let a = Array.make (Int64.to_int wl) 0 in
      left := !left - Array.length a;
      read_section r 'W' ~width:1 (Array.length a) (fun b off i ->
          a.(i) <- Bytes.get_uint8 b off);
      { sh with s_warm = Some a }
    end
  in
  let shards = Array.init nshards shard in
  let sum = r.sum in
  if Frame.get_u32 (one r 'Z' 4) 1 <> sum then
    bad (r.body + 1) "end frame CRC mismatch: the frames are not one checkpoint";
  if r.pos <> r.size then bad r.pos "trailing data after the end frame";
  { inst; assign = Array.init n (fun u -> Array.sub items (u * k) k); label;
    shards; ext_of; next_ext; tick_no = int 0; events_total = int 2;
    wal_seqno = ints.(1); cut_mass = floats.(1); objective_v = floats.(2);
    bound_v = floats.(3); upper_v = floats.(4); rng }

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let r =
        { ic; size = in_channel_length ic; hdr = Bytes.create 8;
          buf = ref (Bytes.create max_body); pos = 0; body = 0; sum = 0 }
      in
      match decode r with
      | snap -> Ok snap
      | exception Corrupt (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)
      | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
          Error (Printf.sprintf "byte %d: %s" r.pos msg)
      | exception End_of_file ->
          Error (Printf.sprintf "byte %d: truncated checkpoint" r.pos))

let load_latest dir =
  let files = List.rev (list_files dir) in
  let rec go skipped = function
    | [] ->
        Error
          (match skipped with
          | [] -> "no checkpoints found"
          | (_, e) :: _ ->
              Printf.sprintf "no loadable checkpoint (newest: %s)" e)
    | (path, _, _) :: tl -> (
        match load path with
        | Ok s -> Ok (path, s, List.rev skipped)
        | Error e -> go ((path, e) :: skipped) tl)
  in
  go [] files
