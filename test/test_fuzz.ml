(* Deterministic fuzzing of the binary decoders, [Checkpoint.load] and
   [Wal.scan]: byte flips, truncation at every frame boundary and one
   byte either side, splices of two valid checkpoints, and field
   tampering with every CRC recomputed. A decoder must never raise.
   Every checkpoint error names a byte offset; a checkpoint that loads
   passes [Instance.validate] and survives [Serve.restore] and
   [Serve.audit], and a tampered bracket term that loads is named by
   the audit. A WAL scan keeps a prefix of the logged records. The
   CI chaos job's SVGIC_FAULT_SEED offsets the seed, as in the
   robustness suite, so each leg fuzzes a different set. *)

module Rng = Svgic_util.Rng
module Fault = Svgic_util.Fault
module Instance = Svgic.Instance
module Serve = Svgic.Serve
module Wal = Svgic.Wal
module Checkpoint = Svgic.Checkpoint
module D = Test_durability

let base_seed = match Fault.env_seed () with Some s -> 100 * s | None -> 0

(* Two checkpoints of one engine, two ticks apart, after a leave and a
   join (so its external ids are not contiguous), and its WAL. *)
let fixture =
  lazy
    (let dir = D.fresh_dir () in
     let inst =
       Test_serve.community_instance (Rng.create 41) ~blobs:3 ~blob_size:4 ~m:5
         ~k:2
     in
     let t = Serve.create (Rng.create 42) inst in
     Serve.enable_durability t
       { Serve.dir; fsync = Wal.Off; checkpoint_every = 1000; retain = 10 };
     ignore (Serve.submit t (Serve.Leave 3) : int option);
     ignore
       (Serve.submit t
          (Serve.Join (Test_serve.profile ~m:5 ~seed:7 ~friends:[ 0; 5 ]))
         : int option);
     D.drive t (Rng.create 43) ~events:5 ~ticks:2;
     let a = Serve.checkpoint t in
     ignore (Serve.submit t (Serve.Tau_delta { u = 0; v = 1; item = 2; value = 0.3 })
              : int option);
     D.drive t (Rng.create 44) ~events:5 ~ticks:2;
     let b = Serve.checkpoint t in
     Serve.disable_durability t;
     (D.read_file a, D.read_file b, D.read_file (Filename.concat dir "wal.svgic")))

let scratch =
  lazy (Filename.concat (D.fresh_dir ()) "ckpt-000000000001-0000000000000001.svgic")

let offset_error e =
  match Scanf.sscanf e "byte %u: %_s" ignore with
  | () -> true
  | exception _ -> false

(* Load the scratch file and hold the outcome to the rules above;
   [named], for a tampered bracket term, is what the audit must
   report. *)
let check_loaded ?(must_fail = false) ?named what =
  match Checkpoint.load (Lazy.force scratch) with
  | exception e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)
  | Error e ->
      if not (offset_error e) then
        Alcotest.failf "%s: error without a byte offset: %S" what e;
      if named <> None then
        Alcotest.failf "%s: a finite bracket term did not load: %s" what e
  | Ok snap -> (
      if must_fail then Alcotest.failf "%s: loaded" what;
      if Instance.validate snap.Checkpoint.inst <> Ok () then
        Alcotest.failf "%s: loaded an instance that fails validate" what;
      match Serve.restore snap with
      | exception e ->
          Alcotest.failf "%s: restore raised %s" what (Printexc.to_string e)
      | r -> (
          match Serve.audit r with
          | exception e ->
              Alcotest.failf "%s: audit raised %s" what (Printexc.to_string e)
          | a -> (
              match named with
              | Some named when a.Serve.audit_ok || not (named a) ->
                  Alcotest.failf "%s: the audit did not name the tampered term"
                    what
              | Some _ | None -> ())))

let check_bytes ?must_fail what s =
  D.write_file (Lazy.force scratch) s;
  check_loaded ?must_fail what

(* The file's frames as raw strings, magic line first. *)
let raw_frames s =
  let nl = String.index s '\n' in
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let len = D.u32 (Bytes.unsafe_of_string s) pos in
      go (pos + 8 + len) (String.sub s pos (8 + len) :: acc)
  in
  String.sub s 0 (nl + 1) :: go (nl + 1) []

let test_flips_truncations_splices () =
  let a, b, _ = Lazy.force fixture in
  Alcotest.(check bool) "checkpoints differ" true (a <> b);
  check_bytes "pristine a" a;
  check_bytes "pristine b" b;
  let r = Rng.create (base_seed + 1) in
  for i = 1 to 300 do
    let s = Bytes.of_string (if i land 1 = 0 then a else b) in
    let pos = Rng.int r (Bytes.length s) in
    Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor (1 + Rng.int r 255)));
    check_bytes ~must_fail:true (Printf.sprintf "flip at byte %d" pos)
      (Bytes.to_string s)
  done;
  (* several flips at once: never a raise, whatever the outcome *)
  for _ = 1 to 100 do
    let s = Bytes.of_string a in
    for _ = 1 to 2 + Rng.int r 6 do
      let pos = Rng.int r (Bytes.length s) in
      Bytes.set s pos (Char.chr (Rng.int r 256))
    done;
    check_bytes "multi-byte flip" (Bytes.to_string s)
  done;
  let ends =
    List.fold_left
      (fun acc f -> (List.hd acc + String.length f) :: acc)
      [ 0 ] (raw_frames a)
  in
  List.iter
    (fun e ->
      List.iter
        (fun cut ->
          if cut >= 0 && cut < String.length a then
            check_bytes ~must_fail:true
              (Printf.sprintf "truncated to %d bytes" cut)
              (String.sub a 0 cut))
        [ e - 1; e; e + 1 ])
    ends;
  let fa = raw_frames a and fb = raw_frames b in
  let splice x y i =
    String.concat "" (List.filteri (fun j _ -> j < i) x @ List.filteri (fun j _ -> j >= i) y)
  in
  for i = 1 to max (List.length fa) (List.length fb) do
    List.iter
      (fun s ->
        let what = Printf.sprintf "frame splice at frame %d" i in
        if s = a || s = b then check_bytes what s
        else check_bytes ~must_fail:true what s)
      [ splice fa fb i; splice fb fa i ]
  done;
  for _ = 1 to 100 do
    let p = Rng.int r (String.length a) and q = Rng.int r (String.length b) in
    let s = String.sub a 0 p ^ String.sub b q (String.length b - q) in
    if s <> a && s <> b then
      check_bytes ~must_fail:true (Printf.sprintf "byte splice %d/%d" p q) s
  done

(* Field tampering, every CRC recomputed: each case rewrites the first
   frame of one kind, at a byte offset of its body (the kind byte is
   at 0, so a section's first element starts at 1). *)
let meta_int i = 1 + (8 * i)
let meta_float i = 81 + (8 * i)

let test_field_tampering () =
  let a, _, _ = Lazy.force fixture in
  let path = Lazy.force scratch in
  let get_i b off = Int64.to_int (Bytes.get_int64_le b off) in
  let get_f b off = Int64.float_of_bits (Bytes.get_int64_le b off) in
  let set_i b off v = Bytes.set_int64_le b off (Int64.of_int v) in
  let set_f b off v = Bytes.set_int64_le b off (Int64.bits_of_float v) in
  let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v) in
  let meta = Bytes.of_string (List.nth (raw_frames a) 1) in
  let meta_at i = get_i meta (8 + meta_int i) in
  let n = meta_at 5 and m = meta_at 6 and next_ext = meta_at 3 in
  let nshards = meta_at 4 in
  let case ?(must_fail = true) ?named what kind f =
    D.write_file path a;
    Alcotest.(check bool) (what ^ ": frame found") true (D.tamper path kind f);
    check_loaded ~must_fail ?named what
  in
  (* counts past the file end, and overflowing products *)
  case "n + 1" 'M' (fun b -> set_i b (meta_int 5) (n + 1));
  List.iter
    (fun (what, i, v) -> case what 'M' (fun b -> set_i b (meta_int i) v))
    [ ("2^31 users", 5, 1 lsl 31); ("max_int users", 5, max_int);
      ("2^40 edges", 8, 1 lsl 40); ("2^40-byte rng state", 9, 1 lsl 40);
      ("2^31 shards", 4, 1 lsl 31); ("m = 0", 6, 0); ("k > m", 7, m + 1);
      ("negative tick", 0, -1); ("negative seqno", 1, -5) ];
  case "2^63 - 1 users" 'M' (fun b -> Bytes.set_int64_le b (meta_int 5) Int64.max_int);
  let t0 = Unix.gettimeofday () in
  case "2^31 users, timed" 'M' (fun b -> set_i b (meta_int 5) (1 lsl 31));
  Alcotest.(check bool) "2^31 users fail fast" true
    (Unix.gettimeofday () -. t0 < 0.5);
  (* non-finite and negative floats *)
  List.iter
    (fun (what, i, v) -> case what 'M' (fun b -> set_f b (meta_float i) v))
    [ ("NaN lambda", 0, Float.nan); ("lambda 2", 0, 2.0);
      ("NaN cut", 1, Float.nan); ("infinite objective", 2, infinity);
      ("NaN bound", 3, Float.nan); ("NaN upper", 4, Float.nan) ];
  List.iter
    (fun (what, kind, v) -> case what kind (fun b -> set_f b 1 v))
    [ ("NaN pref", 'P', Float.nan); ("negative pref", 'P', -1.0);
      ("infinite pref", 'P', infinity); ("NaN tau", 'T', Float.nan);
      ("negative tau", 'T', -0.5); ("NaN shard objective", 'S', Float.nan) ];
  case "NaN shard upper" 'S' (fun b -> set_f b 9 Float.nan);
  (* bracket terms that are finite but wrong load; the audit names them *)
  List.iter
    (fun (what, i, d, named) ->
      case ~must_fail:false ~named what 'M' (fun b ->
          set_f b (meta_float i) (get_f b (meta_float i) +. d)))
    [ ("objective + 1", 2, 1.0, fun a -> a.Serve.objective_drift > 0.5);
      ("cut mass + 1", 1, 1.0, fun a -> a.Serve.cut_drift > 0.5);
      ("bound + 100", 3, 100.0, fun a -> not a.Serve.bracket_ok) ];
  (* out-of-range and duplicate ids *)
  case "assign item m" 'A' (fun b -> set_u32 b 1 m);
  case "label = nshards" 'L' (fun b -> set_u32 b 1 nshards);
  case "ext id = next_ext" 'X' (fun b -> set_u32 b 1 next_ext);
  case "duplicate ext id" 'X' (fun b -> Bytes.blit b 1 b 5 4);
  case "edge endpoint n" 'E' (fun b -> set_u32 b 1 n);
  case "self-loop" 'E' (fun b -> Bytes.blit b 1 b 5 4);
  case "duplicate edge" 'E' (fun b -> Bytes.blit b 1 b 9 8);
  case "unsorted edges" 'E' (fun b ->
      let first = Bytes.sub b 1 8 in
      Bytes.blit b 9 b 1 8;
      Bytes.blit first 0 b 9 8);
  (* shard records: flags, warm lengths *)
  case "shard flags 7" 'S' (fun b -> Bytes.set_uint8 b 41 7);
  let shard_frame = List.find (fun f -> f.[8] = 'S') (List.tl (raw_frames a)) in
  Alcotest.(check bool) "the first shard has a warm basis" true
    (get_i (Bytes.of_string shard_frame) (8 + 33) >= 0);
  case "warm length + 1" 'S' (fun b -> set_i b 33 (get_i b 33 + 1));
  case "warm length - 2" 'S' (fun b -> set_i b 33 (-2));
  case "warm length 2^40" 'S' (fun b -> set_i b 33 (1 lsl 40));
  case ~must_fail:false "warm entry 200" 'W' (fun b -> Bytes.set_uint8 b 1 200);
  (* the RNG state: a wrong length either way, and foreign contents *)
  D.write_file path a;
  let header, bodies = D.read_frames path in
  let with_bodies what ?(must_fail = true) f =
    D.write_frames path header (f (List.map Bytes.copy bodies));
    check_loaded ~must_fail what
  in
  let map_kind kind f = List.map (fun b -> if Bytes.get b 0 = kind then f b else b) in
  let shorter b = Bytes.sub b 0 (Bytes.length b - 1) in
  with_bodies "rng state one byte short" (fun bs ->
      map_kind 'R' shorter bs
      |> map_kind 'M' (fun b -> set_i b (meta_int 9) (get_i b (meta_int 9) - 1); b));
  with_bodies "rng frame shorter than its length" (map_kind 'R' shorter);
  with_bodies "rng state bytes zeroed" (map_kind 'R' (fun b ->
      Bytes.fill b 1 (Bytes.length b - 1) '\000'; b));
  with_bodies ~must_fail:false "rng state bits changed" (map_kind 'R' (fun b ->
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1)); b));
  (* frames missing, repeated, foreign or trailing *)
  with_bodies "no rng frame" (List.filter (fun b -> Bytes.get b 0 <> 'R'));
  with_bodies "pref frame twice" (List.concat_map (fun b ->
      if Bytes.get b 0 = 'P' then [ b; b ] else [ b ]));
  with_bodies "unknown frame kind" (fun bs ->
      List.hd bs :: Bytes.of_string "Qxyz" :: List.tl bs);
  check_bytes ~must_fail:true "trailing byte" (a ^ "x")

(* The WAL scan: never a raise; what it keeps is a prefix of the
   logged records, and a torn tail is reported where the prefix
   ends. *)
let test_wal_scan_fuzz () =
  let _, _, wal = Lazy.force fixture in
  let path = Filename.concat (D.fresh_dir ()) "wal.svgic" in
  D.write_file path wal;
  let logged = ref [] in
  (match Wal.scan ~f:(fun _ r -> logged := r :: !logged) path with
  | Ok s -> Alcotest.(check (option string)) "pristine wal" None s.Wal.torn
  | Error e -> Alcotest.failf "pristine wal: %s" e);
  let logged = Array.of_list (List.rev !logged) in
  Alcotest.(check bool) "wal holds events and ticks" true (Array.length logged > 10);
  let check what s =
    D.write_file path s;
    let i = ref 0 in
    let f _ r =
      if !i >= Array.length logged || not (D.record_eq logged.(!i) r) then
        Alcotest.failf "%s: record %d is not the logged one" what !i;
      incr i
    in
    match Wal.scan ~f path with
    | exception e -> Alcotest.failf "%s: scan raised %s" what (Printexc.to_string e)
    | Error _ -> ()
    | Ok sc ->
        if (sc.Wal.torn = None) <> (sc.Wal.valid_end = sc.Wal.file_size) then
          Alcotest.failf "%s: torn %s with valid_end %d of %d" what
            (Option.value sc.Wal.torn ~default:"none") sc.Wal.valid_end
            sc.Wal.file_size
  in
  let r = Rng.create (base_seed + 2) in
  for _ = 1 to 300 do
    let s = Bytes.of_string wal in
    let pos = Rng.int r (Bytes.length s) in
    Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor (1 + Rng.int r 255)));
    check (Printf.sprintf "wal flip at byte %d" pos) (Bytes.to_string s)
  done;
  let nl = String.index wal '\n' + 1 in
  let rec boundaries pos acc =
    if pos >= String.length wal then List.rev (pos :: acc)
    else boundaries (pos + 8 + D.u32 (Bytes.unsafe_of_string wal) pos) (pos :: acc)
  in
  List.iter
    (fun e ->
      List.iter
        (fun cut ->
          if cut >= 0 && cut <= String.length wal then
            check (Printf.sprintf "wal cut to %d" cut) (String.sub wal 0 cut))
        [ e - 1; e; e + 1 ])
    (boundaries nl []);
  (* payload tampering with the frame CRC recomputed: the scan stops
     there as torn, with the decoder's reason *)
  let reframe off body =
    String.sub wal 0 off ^ D.frame body
    ^ String.sub wal (off + 8 + Bytes.length body)
        (String.length wal - off - 8 - Bytes.length body)
  in
  let first_of_kind k =
    let rec go pos =
      if pos >= String.length wal then Alcotest.failf "no wal record of kind %d" k
      else if Char.code wal.[pos + 16] = k then pos
      else go (pos + 8 + D.u32 (Bytes.unsafe_of_string wal) pos)
    in
    go nl
  in
  List.iter
    (fun (what, kind, f, reason) ->
      let off = first_of_kind kind in
      let body = Bytes.of_string (String.sub wal (off + 8) (D.u32 (Bytes.unsafe_of_string wal) off)) in
      f body;
      check what (reframe off body);
      match Wal.scan path with
      | Ok { Wal.torn = Some t; valid_end; _ } ->
          Alcotest.(check string) (what ^ ": reason") reason t;
          Alcotest.(check int) (what ^ ": valid_end") off valid_end
      | Ok _ | Error _ -> Alcotest.failf "%s: not reported as a torn tail" what)
    [ ("pref item = m", 1, (fun b -> Bytes.set_int32_le b 13 5l), "pref: item out of range");
      ("join pref row overrun", 4, (fun b -> Bytes.set_int32_le b 9 1000l),
        "join: pref row overruns record");
      ("unknown kind", 0, (fun b -> Bytes.set_uint8 b 8 99), "unknown record kind 99");
      ("seqno jump", 0, (fun b -> Bytes.set_int64_le b 0 1000L), "seqno discontinuity") ]

(* A header [m] near 2^59 makes a friend's [4 + 16 m] bytes wrap to 4:
   the crafted join record must be refused by size, not decoded by
   [Array.init m]. *)
let test_wal_join_wrap () =
  let m = 1 lsl 59 and nf = 2 in
  let body = Bytes.make (17 + (4 * nf)) '\000' in
  Bytes.set_int64_le body 0 1L;
  Bytes.set_uint8 body 8 4;
  Bytes.set_int32_le body 13 (Int32.of_int nf);
  let path = Filename.concat (D.fresh_dir ()) "wal.svgic" in
  D.write_file path (Printf.sprintf "svgic-wal 1 m %d\n" m ^ D.frame body);
  match Wal.scan path with
  | exception e -> Alcotest.failf "scan raised %s" (Printexc.to_string e)
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok sc ->
      Alcotest.(check (option string)) "refused as a torn tail"
        (Some "join: bad friend block") sc.Wal.torn

let suite =
  [
    Alcotest.test_case "checkpoint: flips, truncations, splices" `Quick
      test_flips_truncations_splices;
    Alcotest.test_case "checkpoint: field tampering, CRCs recomputed" `Quick
      test_field_tampering;
    Alcotest.test_case "wal: flips, truncations, payload tampering" `Quick
      test_wal_scan_fuzz;
    Alcotest.test_case "wal: a wrapping friend block is refused" `Quick
      test_wal_join_wrap;
  ]
