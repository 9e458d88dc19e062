(* Durability tests: CRC-32 check value and combine, WAL round-trips
   and torn-tail truncation at every byte length, checkpoint
   round-trips (every float shape bit for bit, the RNG stream), version
   refusal and corruption fallback, fault-injected
   append/fsync/checkpoint paths, audit detection + repair of a
   frame-level tampered checkpoint, and the
   subprocess kill matrix — SIGKILL a live `svgic serve` at random
   tick offsets and prove the recovered replay bit-identical. *)

module Rng = Svgic_util.Rng
module Crc32 = Svgic_util.Crc32
module Fault = Svgic_util.Fault
module Instance = Svgic.Instance
module Serve = Svgic.Serve
module Wal = Svgic.Wal
module Checkpoint = Svgic.Checkpoint

(* A fresh directory under the system temp dir. Some of them back lazy
   fixtures that several tests share, so each one is removed, with the
   files in it, when the test binary exits. *)
let fresh_dir =
  let c = ref 0 in
  fun () ->
    incr c;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "svgic-dur-%d-%d" (Unix.getpid ()) !c)
    in
    Checkpoint.ensure_dir d;
    at_exit (fun () ->
        try
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
          Sys.rmdir d
        with Sys_error _ -> ());
    d

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_faults ~sites f =
  Fault.configure ~seed:1 ~rate:1.0 ~kinds:[ Fault.Crash ];
  Fault.restrict_sites sites;
  Fun.protect ~finally:Fault.clear f

(* ------------------------------ crc ------------------------------- *)

let test_crc_check_value () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.of_string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.of_string "");
  (* streaming in slices composes *)
  let s = "the quick brown fox" in
  let a = Crc32.of_string s in
  let b = Crc32.update_string (Crc32.update_string 0 s ~pos:0 ~len:7) s ~pos:7
      ~len:(String.length s - 7)
  in
  Alcotest.(check int) "slices compose" a b

(* ------------------------------ wal ------------------------------- *)

let sample_records m =
  [
    Wal.Event (Wal.Pref { user = 3; item = 1; value = 0.125 });
    Wal.Event (Wal.Tau { u = 0; v = 2; item = m - 1; value = -1.5e-3 });
    Wal.Tick 1;
    Wal.Event (Wal.Leave 2);
    Wal.Event
      (Wal.Join
         {
           Wal.jpref = Array.init m (fun c -> 0.1 *. float_of_int c);
           jfriends =
             [|
               ( 7,
                 Array.init m (fun c -> float_of_int c /. 7.0),
                 Array.init m (fun c -> 1.0 -. (float_of_int c /. 7.0)) );
             |];
         });
    Wal.Tick 2;
  ]

let bits = Int64.bits_of_float

let record_eq a b =
  match (a, b) with
  | Wal.Tick x, Wal.Tick y -> x = y
  | Wal.Event (Wal.Leave x), Wal.Event (Wal.Leave y) -> x = y
  | Wal.Event (Wal.Pref p), Wal.Event (Wal.Pref q) ->
      p.user = q.user && p.item = q.item && bits p.value = bits q.value
  | Wal.Event (Wal.Tau p), Wal.Event (Wal.Tau q) ->
      p.u = q.u && p.v = q.v && p.item = q.item && bits p.value = bits q.value
  | Wal.Event (Wal.Join p), Wal.Event (Wal.Join q) ->
      Array.map bits p.jpref = Array.map bits q.jpref
      && Array.length p.jfriends = Array.length q.jfriends
      && Array.for_all2
           (fun (e1, o1, i1) (e2, o2, i2) ->
             e1 = e2
             && Array.map bits o1 = Array.map bits o2
             && Array.map bits i1 = Array.map bits i2)
           p.jfriends q.jfriends
  | _ -> false

let test_wal_roundtrip () =
  let m = 4 in
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m ~policy:Wal.Every_tick in
  let records = sample_records m in
  List.iteri
    (fun i r ->
      Alcotest.(check int64)
        "seqno" (Int64.of_int (i + 1)) (Wal.append w r))
    records;
  Wal.close w;
  let got = ref [] in
  (match Wal.scan ~f:(fun _ r -> got := r :: !got) path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
      Alcotest.(check int) "records" (List.length records) s.Wal.records;
      Alcotest.(check int) "events" 4 s.Wal.events;
      Alcotest.(check int) "ticks" 2 s.Wal.ticks;
      Alcotest.(check int) "m" m s.Wal.scan_m;
      Alcotest.(check (option string)) "not torn" None s.Wal.torn;
      Alcotest.(check int) "valid to eof" s.Wal.file_size s.Wal.valid_end);
  List.iter2
    (fun a b -> Alcotest.(check bool) "record bit-identical" true (record_eq a b))
    records
    (List.rev !got)

(* SIGKILL can land mid-write: every truncation length of the final
   record must be detected as torn, truncate back to the last full
   record, and repair cleanly. *)
let test_wal_torn_tail () =
  let m = 3 in
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.svgic" in
  let w = Wal.create ~path ~m ~policy:Wal.Off in
  List.iter
    (fun r -> ignore (Wal.append w r : int64))
    [
      Wal.Tick 1;
      Wal.Event (Wal.Pref { user = 0; item = 1; value = 0.5 });
      Wal.Tick 2;
    ];
  Wal.close w;
  let prefix = read_file path in
  let prefix_end = String.length prefix in
  (match Wal.open_append ~path ~policy:Wal.Off () with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok (w, _) ->
      ignore (Wal.append w (Wal.Event (Wal.Tau { u = 0; v = 1; item = 2; value = 0.25 })) : int64);
      Wal.close w);
  let full = read_file path in
  Alcotest.(check bool) "final record appended" true
    (String.length full > prefix_end
    && String.sub full 0 prefix_end = prefix);
  let torn_path = Filename.concat dir "torn.svgic" in
  for cut = prefix_end to String.length full - 1 do
    write_file torn_path (String.sub full 0 cut);
    match Wal.scan torn_path with
    | Error e -> Alcotest.failf "scan cut=%d: %s" cut e
    | Ok s ->
        Alcotest.(check int)
          (Printf.sprintf "records at cut %d" cut)
          3 s.Wal.records;
        Alcotest.(check int)
          (Printf.sprintf "valid_end at cut %d" cut)
          prefix_end s.Wal.valid_end;
        if cut > prefix_end then
          Alcotest.(check bool)
            (Printf.sprintf "torn at cut %d" cut)
            true (s.Wal.torn <> None)
  done;
  (* repair drops the tail; the log then scans clean *)
  write_file torn_path (String.sub full 0 (String.length full - 1));
  (match Wal.repair torn_path with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok s -> Alcotest.(check (option string)) "repaired" None s.Wal.torn);
  Alcotest.(check int) "truncated to last full record" prefix_end
    (String.length (read_file torn_path))

let test_wal_mid_corruption () =
  let m = 3 in
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m ~policy:Wal.Off in
  for t = 1 to 4 do
    ignore (Wal.append w (Wal.Tick t) : int64)
  done;
  Wal.close w;
  let s = Bytes.of_string (read_file path) in
  let header_len = String.length (Printf.sprintf "svgic-wal 1 m %d\n" m) in
  (* flip a byte inside the SECOND record's body *)
  let off = header_len + (8 + 13) + 10 in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0x40));
  write_file path (Bytes.to_string s);
  match Wal.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok sc ->
      Alcotest.(check int) "stops before corrupt record" 1 sc.Wal.records;
      Alcotest.(check int) "valid_end" (header_len + 8 + 13) sc.Wal.valid_end;
      Alcotest.(check bool) "torn" true (sc.Wal.torn <> None)

let test_wal_open_append_seqnos () =
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m:2 ~policy:Wal.Off in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  ignore (Wal.append w (Wal.Tick 2) : int64);
  Wal.close w;
  (match Wal.open_append ~path ~policy:Wal.Off () with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok (w, s) ->
      Alcotest.(check int64) "scanned last" 2L s.Wal.last_seqno;
      Alcotest.(check int64) "continues" 3L (Wal.append w (Wal.Tick 3));
      Wal.close w);
  (* min_seqno guards against a lost unsynced tail reusing seqnos *)
  match Wal.open_append ~path ~policy:Wal.Off ~min_seqno:10L () with
  | Error e -> Alcotest.failf "open_append min_seqno: %s" e
  | Ok (w, _) ->
      Alcotest.(check int64) "bumped past checkpoint" 11L
        (Wal.append w (Wal.Tick 4));
      Wal.close w

(* -------------------- fault-injected wal paths -------------------- *)

let test_fault_wal_append () =
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m:2 ~policy:Wal.Off in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  (try
     with_faults ~sites:[ "wal_append" ] (fun () ->
         ignore (Wal.append w (Wal.Tick 2) : int64);
         Alcotest.fail "wal_append fault did not fire")
   with Fault.Injected _ -> ());
  Wal.close w;
  (* the crash left half a frame; recovery truncates it *)
  match Wal.repair path with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok s ->
      Alcotest.(check int) "valid prefix survives" 1 s.Wal.records;
      Alcotest.(check (option string)) "tail dropped" None s.Wal.torn

let test_fault_wal_fsync () =
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m:2 ~policy:Wal.Every_event in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  (try
     with_faults ~sites:[ "wal_fsync" ] (fun () ->
         ignore (Wal.append w (Wal.Tick 2) : int64);
         Alcotest.fail "wal_fsync fault did not fire")
   with Fault.Injected _ -> ());
  (* the record never reached the disk: a scan of the file sees only
     the synced prefix (the writer is abandoned, as a crash would) *)
  match Wal.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s -> Alcotest.(check int) "unsynced record lost" 1 s.Wal.records

(* --------------------------- checkpoints -------------------------- *)

let mk_engine seed =
  let rng = Rng.create seed in
  let inst =
    Test_serve.community_instance rng ~blobs:3 ~blob_size:4 ~m:5 ~k:2
  in
  Serve.create (Rng.create (seed + 1)) inst

let drive t r ~events ~ticks =
  let n = Serve.num_users t in
  for _ = 1 to ticks do
    for _ = 1 to events do
      ignore
        (Serve.submit t
           (Serve.Pref_delta
              { user = Rng.int r n; item = Rng.int r 5; value = Rng.float r 1.0 })
          : int option)
    done;
    ignore (Serve.tick t : Serve.tick_stats)
  done

let test_checkpoint_roundtrip () =
  let t = mk_engine 11 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 3 };
  drive t (Rng.create 5) ~events:6 ~ticks:3;
  let path = Serve.checkpoint t in
  Serve.disable_durability t;
  match Checkpoint.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok snap ->
      let r = Serve.restore snap in
      Alcotest.(check int) "fingerprint" (Serve.fingerprint t)
        (Serve.fingerprint r);
      Alcotest.(check bool) "objective bits" true
        (bits (Serve.objective t) = bits (Serve.objective r));
      let a = Serve.audit r in
      Alcotest.(check bool) "audit ok" true a.Serve.audit_ok;
      Alcotest.(check bool) "bracket ok" true a.Serve.bracket_ok

let test_checkpoint_corrupt_fallback () =
  let t = mk_engine 13 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 4 };
  drive t (Rng.create 6) ~events:5 ~ticks:3;
  let fp = Serve.fingerprint t in
  Serve.disable_durability t;
  let files = Checkpoint.list_files dir in
  Alcotest.(check bool) "several checkpoints" true (List.length files >= 2);
  let newest, _, _ = List.nth files (List.length files - 1) in
  (* flip a byte in the middle of the newest checkpoint *)
  let b = Bytes.of_string (read_file newest) in
  let off = Bytes.length b / 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  write_file newest (Bytes.to_string b);
  (match Checkpoint.load newest with
  | Ok _ -> Alcotest.fail "corrupt checkpoint loaded"
  | Error _ -> ());
  match Serve.recover ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, rec_) ->
      Alcotest.(check bool) "skipped the corrupt newest" true
        (List.exists (fun (p, _) -> p = newest) rec_.Serve.checkpoints_skipped);
      Alcotest.(check bool) "replayed past older checkpoint" true
        (rec_.Serve.replayed_ticks >= 1);
      Alcotest.(check int) "recovered bit-identical" fp (Serve.fingerprint r);
      Serve.disable_durability r

let test_fault_checkpoint_write_and_rename () =
  let t = mk_engine 17 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 4 };
  drive t (Rng.create 7) ~events:5 ~ticks:2;
  let before = List.length (Checkpoint.list_files dir) in
  List.iter
    (fun site ->
      drive t (Rng.create 8) ~events:3 ~ticks:0;
      (* the periodic checkpoint inside tick fails; the engine counts
         it and keeps serving on the previous checkpoint + WAL *)
      with_faults ~sites:[ site ] (fun () ->
          ignore (Serve.tick t : Serve.tick_stats)))
    [ "checkpoint_write"; "checkpoint_rename" ];
  Alcotest.(check int) "both failures counted" 2 (Serve.checkpoint_failures t);
  Alcotest.(check int) "no new checkpoint landed" before
    (List.length (Checkpoint.list_files dir));
  let fp = Serve.fingerprint t in
  Serve.disable_durability t;
  (* no temp litter survives recovery, and the WAL carries the ticks
     the checkpoints missed *)
  match Serve.recover ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, rec_) ->
      Alcotest.(check bool) "replayed the missed ticks" true
        (rec_.Serve.replayed_ticks >= 2);
      Alcotest.(check int) "bit-identical" fp (Serve.fingerprint r);
      Serve.disable_durability r

(* A lost WAL: recovery rests on the newest checkpoint alone, seeds a
   fresh log, and its appends continue past the checkpoint's seqno. *)
let test_recover_without_wal () =
  let t = mk_engine 27 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 2 };
  drive t (Rng.create 10) ~events:5 ~ticks:3;
  let fp = Serve.fingerprint t in
  Serve.disable_durability t;
  let wal = Filename.concat dir "wal.svgic" in
  Sys.remove wal;
  match Serve.recover ~fsync:Wal.Every_tick ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, rec_) ->
      Alcotest.(check int) "recovered bit-identical" fp (Serve.fingerprint r);
      Alcotest.(check (list int)) "nothing replayed or torn" [ 0; 0; 0 ]
        [ rec_.Serve.replayed_ticks; rec_.Serve.wal_records; rec_.Serve.torn_bytes ];
      drive r (Rng.create 11) ~events:2 ~ticks:1;
      Serve.disable_durability r;
      match Wal.scan wal with
      | Error e -> Alcotest.failf "scan: %s" e
      | Ok s ->
          Alcotest.(check bool) "appends continue past the checkpoint" true
            (s.Wal.records = 3
            && Int64.compare s.Wal.first_seqno rec_.Serve.checkpoint_seqno > 0)

(* --------------------- audit detect + repair ---------------------- *)

(* A checkpoint as its magic line and its frames' bodies (kind byte
   first, the end frame last), and back: [write_frames] recomputes
   every frame CRC and the end frame's CRC over the new bytes, so a
   tamper changes only what the fields say, not the framing. *)
let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let read_frames path =
  let s = read_file path in
  let nl = String.index s '\n' in
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let len = u32 (Bytes.unsafe_of_string s) pos in
      go (pos + 8 + len) (Bytes.of_string (String.sub s (pos + 8) len) :: acc)
  in
  (String.sub s 0 (nl + 1), go (nl + 1) [])

let frame body =
  let len = Bytes.length body in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.update_bytes 0 body ~pos:0 ~len));
  Bytes.blit body 0 b 8 len;
  Bytes.to_string b

let write_frames path header bodies =
  let data = List.filter (fun b -> Bytes.get b 0 <> 'Z') bodies in
  let prefix = String.concat "" (header :: List.map frame data) in
  let z = Bytes.create 5 in
  Bytes.set z 0 'Z';
  Bytes.set_int32_le z 1 (Int32.of_int (Crc32.of_string prefix));
  write_file path (prefix ^ frame z)

(* Rewrite the first frame of [kind] in place through [f]; false when
   the file has no such frame. *)
let tamper path kind f =
  let header, bodies = read_frames path in
  let hit = ref false in
  List.iter
    (fun b ->
      if (not !hit) && Bytes.get b 0 = kind then begin
        hit := true;
        f b
      end)
    bodies;
  write_frames path header bodies;
  !hit

let test_audit_detects_tampered_objective () =
  let t = mk_engine 19 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 2 };
  drive t (Rng.create 9) ~events:5 ~ticks:2;
  Serve.disable_durability t;
  let files = Checkpoint.list_files dir in
  let newest, _, _ = List.nth files (List.length files - 1) in
  (* corrupt the first stored shard objective, CRCs kept valid *)
  let hit =
    tamper newest 'S' (fun b -> Bytes.set_int64_le b 1 (Int64.bits_of_float 48.0))
  in
  Alcotest.(check bool) "tampered a shard record" true hit;
  match Serve.recover ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, _) ->
      Serve.disable_durability r;
      let a = Serve.audit r in
      Alcotest.(check bool) "audit detects" false a.Serve.audit_ok;
      Alcotest.(check bool) "names the shard" true (a.Serve.bad_shards <> []);
      let a2 = Serve.audit ~repair:true r in
      Alcotest.(check bool) "repair restores" true a2.Serve.audit_ok;
      Alcotest.(check bool) "shards were demoted" true (a2.Serve.repaired <> []);
      let a3 = Serve.audit r in
      Alcotest.(check bool) "stable after repair" true a3.Serve.audit_ok

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_checkpoint_validate_rejects_bad_label () =
  let t = mk_engine 23 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 1 };
  let path = Serve.checkpoint t in
  Serve.disable_durability t;
  let hit = tamper path 'L' (fun b -> Bytes.set_int32_le b 1 999l) in
  Alcotest.(check bool) "tampered a label" true hit;
  match Checkpoint.load path with
  | Ok _ -> Alcotest.fail "out-of-range label accepted"
  | Error e ->
      Alcotest.(check bool) "mentions label" true
        (String.length e > 0);
      Alcotest.(check bool) (Printf.sprintf "names the label (got %S)" e) true
        (contains e "label 999 outside")

(* ---------------------- binary format (v2) ------------------------ *)

(* A hand-built snapshot with every float shape a checkpoint must
   carry bit for bit — -0.0, subnormals, infinite uppers — plus an
   empty shard husk, both warm-basis shapes and non-contiguous ext
   ids, as after leaves. *)
let edge_case_snapshot () =
  let n = 5 and m = 3 and k = 2 in
  let graph = Svgic_graph.Graph.of_edges ~n [ (0, 1); (1, 0); (1, 3); (3, 4); (4, 0) ] in
  let odd = [| -0.0; 4.9e-324; Float.min_float /. 3.0; 0.1; 1e300; 0.0 |] in
  let pref = Float.Array.init (n * m) (fun i -> odd.(i mod 6)) in
  let tau = Float.Array.init (5 * m) (fun i -> odd.((i + 2) mod 6)) in
  let inst = Instance.of_flat ~graph ~m ~k ~lambda:0.5 ~pref ~tau in
  let shard ?warm obj upper =
    { Checkpoint.s_obj = obj; s_upper = upper; s_degraded = obj = 0.0;
      s_freshened = upper = infinity; s_warm_n = -1; s_warm_pairs = 7;
      s_warm = warm }
  in
  let rng = Rng.create 77 in
  ignore (Rng.int rng 1000 : int);
  {
    Checkpoint.inst;
    assign = [| [| 0; 1 |]; [| 2; 0 |]; [| 1; 2 |]; [| 0; 2 |]; [| 1; 0 |] |];
    label = [| 0; 0; 2; 2; 0 |];
    shards =
      [| shard ~warm:[| 0; 1; 2; 2; 1 |] (-0.0) infinity;
         shard 0.0 infinity;  (* the husk: no user carries label 1 *)
         shard ~warm:[||] 4.9e-324 (Float.min_float /. 2.0) |];
    ext_of = [| 0; 2; 5; 9; 11 |];
    next_ext = 12;
    tick_no = 41;
    events_total = 1234;
    wal_seqno = 987654321L;
    cut_mass = -0.0;
    objective_v = 4.9e-324;
    bound_v = -0.0;
    upper_v = infinity;
    rng;
  }

let fbits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_checkpoint_v2_roundtrip_bits () =
  let snap = edge_case_snapshot () in
  let path = Checkpoint.write ~dir:(fresh_dir ()) ~retain:1 snap in
  match Checkpoint.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok got ->
      let a = snap.Checkpoint.inst and b = got.Checkpoint.inst in
      Alcotest.(check (list int)) "dims"
        [ Instance.n a; Instance.m a; Instance.k a; Instance.num_edges a ]
        [ Instance.n b; Instance.m b; Instance.k b; Instance.num_edges b ];
      fbits "lambda" (Instance.lambda a) (Instance.lambda b);
      for u = 0 to Instance.n a - 1 do
        for c = 0 to Instance.m a - 1 do
          fbits "pref" (Instance.pref a u c) (Instance.pref b u c)
        done
      done;
      Instance.iter_edges a (fun e u v ->
          Alcotest.(check (pair int int)) "edge" (u, v)
            (Instance.edge_u b e, Instance.edge_v b e);
          for c = 0 to Instance.m a - 1 do
            fbits "tau" (Instance.tau_edge a e c) (Instance.tau_edge b e c)
          done);
      let ints = Alcotest.(array int) in
      Alcotest.(check (array ints)) "assign" snap.assign got.assign;
      Alcotest.(check ints) "label" snap.label got.label;
      Alcotest.(check ints) "ext_of" snap.ext_of got.ext_of;
      Alcotest.(check (list int)) "counters"
        [ snap.next_ext; snap.tick_no; snap.events_total ]
        [ got.next_ext; got.tick_no; got.events_total ];
      Alcotest.(check int64) "seqno" snap.wal_seqno got.wal_seqno;
      List.iter2
        (fun (nm, x) y -> fbits nm x y)
        [ ("cut", snap.cut_mass); ("objective", snap.objective_v);
          ("bound", snap.bound_v); ("upper", snap.upper_v) ]
        [ got.cut_mass; got.objective_v; got.bound_v; got.upper_v ];
      Array.iter2
        (fun (x : Checkpoint.shard_snap) (y : Checkpoint.shard_snap) ->
          fbits "shard obj" x.s_obj y.s_obj;
          fbits "shard upper" x.s_upper y.s_upper;
          Alcotest.(check (list int)) "shard ints"
            [ Bool.to_int x.s_degraded; Bool.to_int x.s_freshened; x.s_warm_n;
              x.s_warm_pairs ]
            [ Bool.to_int y.s_degraded; Bool.to_int y.s_freshened; y.s_warm_n;
              y.s_warm_pairs ];
          Alcotest.(check (option ints)) "warm" x.s_warm y.s_warm)
        snap.shards got.shards;
      let draws r = List.init 1000 (fun _ -> Random.State.bits r) in
      Alcotest.(check (list int)) "rng stream continues"
        (draws (Random.State.copy snap.rng))
        (draws (Random.State.copy got.rng));
      (* every user gone: empty sections, one husk *)
      let empty =
        { snap with
          Checkpoint.inst =
            Instance.of_flat ~graph:(Svgic_graph.Graph.of_edges ~n:0 []) ~m:3
              ~k:2 ~lambda:0.5 ~pref:(Float.Array.create 0)
              ~tau:(Float.Array.create 0);
          assign = [||]; label = [||]; ext_of = [||];
          shards = [| snap.shards.(1) |] }
      in
      match Checkpoint.load (Checkpoint.write ~dir:(fresh_dir ()) ~retain:1 empty) with
      | Error e -> Alcotest.failf "empty load: %s" e
      | Ok e ->
          Alcotest.(check (list int)) "empty engine" [ 0; 0; 1 ]
            [ Instance.n e.inst; Instance.num_edges e.inst; Array.length e.shards ]

(* A session whose ticks draw from the RNG (AVG rounding samples):
   checkpointed mid-trace and recovered, it must tick on in lockstep
   with the live engine. *)
let test_checkpoint_rng_continuity () =
  let rounding = Svgic.Shard.Avg { repeats = 2; advanced_sampling = true } in
  let inst =
    Test_serve.community_instance (Rng.create 29) ~blobs:3 ~blob_size:5 ~m:6 ~k:2
  in
  let t = Serve.create ~rounding (Rng.create 30) inst in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 2 };
  drive t (Rng.create 31) ~events:6 ~ticks:3;
  ignore (Serve.checkpoint t : string);
  Serve.disable_durability t;
  match Serve.recover ~rounding ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, _) ->
      Serve.disable_durability r;
      let ev_t = Rng.create 32 and ev_r = Rng.create 32 in
      for tick = 1 to 6 do
        drive t ev_t ~events:6 ~ticks:1;
        drive r ev_r ~events:6 ~ticks:1;
        Alcotest.(check int)
          (Printf.sprintf "fingerprint after tick %d" tick)
          (Serve.fingerprint t) (Serve.fingerprint r);
        fbits
          (Printf.sprintf "objective after tick %d" tick)
          (Serve.objective t) (Serve.objective r)
      done

let test_crc_combine () =
  let a = "svgic-checkpoint 2\n" and b = String.init 300 (fun i -> Char.chr (i * 7 land 255)) in
  Alcotest.(check int) "combine = one pass" (Crc32.of_string (a ^ b))
    (Crc32.combine (Crc32.of_string a) (Crc32.of_string b) (String.length b));
  Alcotest.(check int) "empty tail" (Crc32.of_string a)
    (Crc32.combine (Crc32.of_string a) 0 0)

let test_serialize_byte_offset_errors () =
  let text = "svgic-instance 1\nn 1 m 2 k 1 lambda 0.5\n0.5 oops\nedges 0\n" in
  match Svgic.Serialize.instance_of_string text with
  | Ok _ -> Alcotest.fail "bad float accepted"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "positional error (got %S)" e)
        true
        (String.length e > 5 && String.sub e 0 5 = "byte "
        && String.index_opt e ':' <> None)

(* ------------------------- kill matrix ---------------------------- *)

(* Drive the real CLI binary over a pipe, SIGKILL it after a chosen
   number of completed ticks, recover in a fresh process, resume the
   same trace, and require the final fingerprint to match an
   uninterrupted run.  Children force SVGIC_FAULT_KINDS=timeout,nan so
   a CI chaos seed cannot also fire Crash faults inside them — the
   SIGKILL is this test's fault. *)

(* Resolved relative to this test binary so it works both under `dune
   runtest` (cwd = test dir) and `dune exec` (cwd = project root). *)
let cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/svgic_cli.exe"

let child_env () =
  let key = "SVGIC_FAULT_KINDS=" in
  let seen = ref false in
  let env =
    Array.map
      (fun kv ->
        if String.length kv >= String.length key
           && String.sub kv 0 (String.length key) = key
        then (
          seen := true;
          key ^ "timeout,nan")
        else kv)
      (Unix.environment ())
  in
  if !seen then env else Array.append env [| key ^ "timeout,nan" |]

let spawn args =
  (* cloexec so the child does not inherit the parent-side pipe ends —
     it would otherwise hold its own stdin's write end open and never
     see EOF.  [create_process_env] dup2s its fds onto 0/1, which
     clears the flag on the child's copies. *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      (child_env ()) in_r out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.close in_r;
  (pid, Unix.out_channel_of_descr in_w, Unix.in_channel_of_descr out_r)

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* Run to completion with [input] on stdin; return (exit code, output). *)
let run_cli ?input args =
  let pid, stdin_oc, stdout_ic = spawn args in
  (match input with
  | Some s ->
      output_string stdin_oc s;
      close_out stdin_oc
  | None -> close_out stdin_oc);
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b stdout_ic 1
     done
   with End_of_file -> ());
  close_in stdout_ic;
  (wait_exit pid, Buffer.contents b)

let fingerprint_of output =
  let fp = ref None in
  String.split_on_char '\n' output
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ "fingerprint:"; hex ] -> fp := Some hex
         | _ -> ());
  match !fp with
  | Some hex -> hex
  | None -> Alcotest.failf "no fingerprint in output:\n%s" output

let gen_trace r ~n ~m ~ticks ~per =
  let b = Buffer.create 512 in
  for _ = 1 to ticks do
    for _ = 1 to per do
      Buffer.add_string b
        (Printf.sprintf "pref %d %d %.6f\n" (Rng.int r n) (Rng.int r m)
           (Rng.float r 1.0))
    done;
    Buffer.add_string b "tick\n"
  done;
  Buffer.contents b

let engine_args seed =
  [ "-n"; "12"; "-m"; "6"; "-k"; "2"; "--seed"; string_of_int seed ]

(* Feed the trace line by line; after each "tick" sent, block until the
   child prints that tick's stats line, so the kill lands after the
   tick's WAL record (and any due checkpoint) is on disk. *)
let kill_at_tick ~trace ~dir ~seed ~offset =
  let args =
    ("serve" :: engine_args seed)
    @ [ "--events"; "-"; "--wal"; dir; "--checkpoint-every"; "2";
        "--fsync"; "every_tick" ]
  in
  let pid, stdin_oc, stdout_ic = spawn args in
  let await_tick () =
    let rec go () =
      let line = input_line stdout_ic in
      if String.length line >= 4 && String.sub line 0 4 = "tick" then ()
      else go ()
    in
    go ()
  in
  let ticks_done = ref 0 in
  (try
     String.split_on_char '\n' trace
     |> List.iter (fun line ->
            if !ticks_done < offset && line <> "" then (
              output_string stdin_oc (line ^ "\n");
              if line = "tick" then (
                flush stdin_oc;
                await_tick ();
                incr ticks_done)))
   with End_of_file | Sys_error _ -> ());
  Unix.kill pid Sys.sigkill;
  ignore (wait_exit pid : int);
  close_out_noerr stdin_oc;
  close_in_noerr stdout_ic;
  Alcotest.(check int) "reached the kill offset" offset !ticks_done

let test_kill_matrix () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ticks = 8 and per = 6 in
  for seed = 0 to 2 do
    let cli_seed = 100 + seed in
    let trace = gen_trace (Rng.create (500 + seed)) ~n:12 ~m:6 ~ticks ~per in
    let code, out =
      run_cli ~input:trace
        (("serve" :: engine_args cli_seed) @ [ "--events"; "-"; "--fingerprint" ])
    in
    Alcotest.(check int) "reference run exits 0" 0 code;
    let reference = fingerprint_of out in
    let trace_file =
      Filename.concat (fresh_dir ()) (Printf.sprintf "trace-%d.txt" seed)
    in
    write_file trace_file trace;
    let offs = Rng.create (777 + seed) in
    for _trial = 1 to 5 do
      let offset = 1 + Rng.int offs (ticks - 2) in
      let dir = fresh_dir () in
      kill_at_tick ~trace ~dir ~seed:cli_seed ~offset;
      let code, out =
        run_cli
          [ "fsck"; dir ]
      in
      Alcotest.(check int) "fsck exits 0 on recoverable dir" 0 code;
      Alcotest.(check bool) "fsck reports recoverable" true
        (let needle = "recoverable:" in
         let rec find i =
           i + String.length needle <= String.length out
           && (String.sub out i (String.length needle) = needle || find (i + 1))
         in
         find 0);
      let code, out =
        run_cli
          [ "recover"; "--dir"; dir; "--events"; trace_file; "--fingerprint" ]
      in
      Alcotest.(check int) "recover exits 0" 0 code;
      Alcotest.(check string)
        (Printf.sprintf "seed %d offset %d bit-identical" seed offset)
        reference (fingerprint_of out)
    done
  done

let test_fsck_unrecoverable () =
  let dir = fresh_dir () in
  (* WAL but no checkpoint: nothing to recover from *)
  let w =
    Wal.create ~path:(Filename.concat dir "wal.svgic") ~m:2 ~policy:Wal.Off
  in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  Wal.close w;
  let code, out = run_cli [ "fsck"; dir ] in
  Alcotest.(check int) "nonzero exit" 1 code;
  Alcotest.(check bool) "says unrecoverable" true
    (let needle = "unrecoverable" in
     let rec find i =
       i + String.length needle <= String.length out
       && (String.sub out i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_checkpoint_v1_refused () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "ckpt-000000000003-0000000000000009.svgic" in
  write_file path
    "svgic-checkpoint 1\nmeta tick 3 seqno 9 events 9 next_ext 2 nshards 1 \
     cut 0x0p+0 obj 0x0p+0 bound 0x0p+0 upper inf\n";
  (match Checkpoint.load path with
  | Ok _ -> Alcotest.fail "v1 checkpoint accepted"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "names the version (got %S)" e) true
        (contains e "byte 17: unsupported checkpoint version 1"));
  let code, out = run_cli [ "fsck"; dir ] in
  Alcotest.(check int) "fsck: nothing recoverable" 1 code;
  Alcotest.(check bool) "fsck prints the version error" true
    (contains out "unsupported checkpoint version 1")

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc_check_value;
    Alcotest.test_case "wal roundtrip bit-identical" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail at every cut" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal mid-file corruption stops scan" `Quick
      test_wal_mid_corruption;
    Alcotest.test_case "wal open_append seqno continuity" `Quick
      test_wal_open_append_seqnos;
    Alcotest.test_case "fault: wal_append leaves torn tail" `Quick
      test_fault_wal_append;
    Alcotest.test_case "fault: wal_fsync loses unsynced record" `Quick
      test_fault_wal_fsync;
    Alcotest.test_case "checkpoint roundtrip via restore" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "corrupt checkpoint falls back to older" `Quick
      test_checkpoint_corrupt_fallback;
    Alcotest.test_case "fault: checkpoint write/rename survive" `Quick
      test_fault_checkpoint_write_and_rename;
    Alcotest.test_case "recover with the wal lost" `Quick
      test_recover_without_wal;
    Alcotest.test_case "audit detects and repairs tampering" `Quick
      test_audit_detects_tampered_objective;
    Alcotest.test_case "checkpoint rejects out-of-range label" `Quick
      test_checkpoint_validate_rejects_bad_label;
    Alcotest.test_case "checkpoint v2 roundtrip keeps every bit" `Quick
      test_checkpoint_v2_roundtrip_bits;
    Alcotest.test_case "checkpoint carries the rng stream" `Quick
      test_checkpoint_rng_continuity;
    Alcotest.test_case "checkpoint v1 refused by version" `Quick
      test_checkpoint_v1_refused;
    Alcotest.test_case "crc32 combine" `Quick test_crc_combine;
    Alcotest.test_case "serialize errors carry byte offsets" `Quick
      test_serialize_byte_offset_errors;
    Alcotest.test_case "kill matrix: SIGKILL + recover bit-identical" `Slow
      test_kill_matrix;
    Alcotest.test_case "fsck: unrecoverable directory exits nonzero" `Quick
      test_fsck_unrecoverable;
  ]
