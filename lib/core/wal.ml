(* Write-ahead log: one text header line, then records in {!Frame}s.
   See the .mli for the format.  The writer encodes into a reusable
   scratch buffer so steady-state appends allocate only a few boxed
   words (seqno / float-bits Int64s). *)

module Fault = Svgic_util.Fault
open Frame

type fsync_policy = Every_event | Every_tick | Off

type join = {
  jpref : float array;
  jfriends : (int * float array * float array) array;
}

type event =
  | Join of join
  | Leave of int
  | Pref of { user : int; item : int; value : float }
  | Tau of { u : int; v : int; item : int; value : float }

type record = Event of event | Tick of int

(* ---- writer ------------------------------------------------------ *)

type writer = {
  oc : out_channel;
  mutable scratch : Bytes.t;
  mutable seqno : int64;
  policy : fsync_policy;
  m : int;
  mutable bytes : int;
}

let last_seqno w = w.seqno
let items w = w.m
let bytes_written w = w.bytes

let header_line m = Printf.sprintf "svgic-wal 1 m %d\n" m

let create ~path ~m ~policy =
  if m <= 0 then invalid_arg "Wal.create: m must be positive";
  let oc = open_out_bin path in
  let h = header_line m in
  output_string oc h;
  flush oc;
  { oc; scratch = Bytes.create 256; seqno = 0L; policy; m;
    bytes = String.length h }

let sync w =
  (match Fault.at ~site:"wal_fsync"
           ~index:(Int64.to_int w.seqno land max_int) with
  | Some Fault.Crash -> raise (Fault.Injected "wal_fsync")
  | Some _ | None -> ());
  flush w.oc;
  Unix.fsync (Unix.descr_of_out_channel w.oc)

let close w =
  flush w.oc;
  (match w.policy with
  | Off -> ()
  | Every_event | Every_tick -> Unix.fsync (Unix.descr_of_out_channel w.oc));
  close_out w.oc

(* Body layout: [seqno:u64 | kind:u8 | payload]; kinds 0=tick 1=pref
   2=tau 3=leave 4=join. *)

let body_size m = function
  | Tick _ | Event (Leave _) -> 13
  | Event (Pref _) -> 25
  | Event (Tau _) -> 29
  | Event (Join j) ->
      13 + (8 * Array.length j.jpref) + 4
      + (Array.length j.jfriends * (4 + (16 * m)))

let ensure w n =
  if Bytes.length w.scratch < n then
    w.scratch <- Bytes.create (max n (2 * Bytes.length w.scratch))

let append w r =
  let seq = Int64.add w.seqno 1L in
  let bl = body_size w.m r in
  ensure w (8 + bl);
  let b = w.scratch in
  (* not [put_u64]: a call into another module boxes [seq] once more *)
  Bytes.set_int64_le b 8 seq;
  (match r with
  | Tick t ->
      Bytes.set_uint8 b 16 0;
      put_u32 b 17 t
  | Event (Pref { user; item; value }) ->
      Bytes.set_uint8 b 16 1;
      put_u32 b 17 user;
      put_u32 b 21 item;
      put_f b 25 value
  | Event (Tau { u; v; item; value }) ->
      Bytes.set_uint8 b 16 2;
      put_u32 b 17 u;
      put_u32 b 21 v;
      put_u32 b 25 item;
      put_f b 29 value
  | Event (Leave e) ->
      Bytes.set_uint8 b 16 3;
      put_u32 b 17 e
  | Event (Join j) ->
      Bytes.set_uint8 b 16 4;
      let np = Array.length j.jpref in
      put_u32 b 17 np;
      let off = ref 21 in
      for i = 0 to np - 1 do
        put_f b !off j.jpref.(i);
        off := !off + 8
      done;
      put_u32 b !off (Array.length j.jfriends);
      off := !off + 4;
      Array.iter
        (fun (ext, row_out, row_in) ->
          put_u32 b !off ext;
          off := !off + 4;
          for c = 0 to w.m - 1 do
            put_f b !off row_out.(c);
            off := !off + 8
          done;
          for c = 0 to w.m - 1 do
            put_f b !off row_in.(c);
            off := !off + 8
          done)
        j.jfriends;
      assert (!off = 8 + bl));
  ignore (seal b bl : int);
  (match Fault.at ~site:"wal_append"
           ~index:(Int64.to_int seq land max_int) with
  | Some Fault.Crash ->
      (* simulate a crash mid-write: half a frame reaches the file *)
      output w.oc b 0 ((8 + bl) / 2);
      flush w.oc;
      raise (Fault.Injected "wal_append")
  | Some _ | None -> ());
  output w.oc b 0 (8 + bl);
  w.seqno <- seq;
  w.bytes <- w.bytes + 8 + bl;
  (match (r, w.policy) with
  | _, Every_event | Tick _, Every_tick -> sync w
  | _, (Every_tick | Off) -> ());
  seq

(* ---- scanning ---------------------------------------------------- *)

type scan = {
  records : int;
  events : int;
  ticks : int;
  scan_m : int;
  first_seqno : int64;
  last_seqno : int64;
  valid_end : int;
  file_size : int;
  torn : string option;
}

let decode m b len =
  let kind = Bytes.get_uint8 b 8 in
  match kind with
  | 0 -> if len <> 13 then Error "tick: bad length" else Ok (Tick (get_u32 b 9))
  | 1 ->
      if len <> 25 then Error "pref: bad length"
      else
        let item = get_u32 b 13 in
        if item >= m then Error "pref: item out of range"
        else Ok (Event (Pref { user = get_u32 b 9; item; value = get_f b 17 }))
  | 2 ->
      if len <> 29 then Error "tau: bad length"
      else
        let item = get_u32 b 17 in
        if item >= m then Error "tau: item out of range"
        else
          Ok (Event (Tau { u = get_u32 b 9; v = get_u32 b 13; item;
                           value = get_f b 21 }))
  | 3 -> if len <> 13 then Error "leave: bad length" else Ok (Event (Leave (get_u32 b 9)))
  | 4 ->
      let np = if len < 17 then 0 else get_u32 b 9 in
      (* [np] bounds the friend count's offset inside the record; a
         friend block is checked against the bytes left before [m] or
         [nf] size anything, so a huge header [m] cannot wrap *)
      let off = 13 + (8 * np) in
      let nf = if len < 17 || np > (len - 17) / 8 then 0 else get_u32 b off in
      if len < 17 then Error "join: bad length"
      else if np > (len - 17) / 8 then Error "join: pref row overruns record"
      else if
        (nf > 0 && (m > len / 16 || nf > len / 4))
        || len <> off + 4 + (nf * (4 + (16 * m)))
      then Error "join: bad friend block"
      else
        let friend i =
          let o = off + 4 + (i * (4 + (16 * m))) in
          ( get_u32 b o,
            Array.init m (fun c -> get_f b (o + 4 + (8 * c))),
            Array.init m (fun c -> get_f b (o + 4 + (8 * m) + (8 * c))) )
        in
        Ok
          (Event
             (Join
                { jpref = Array.init np (fun i -> get_f b (13 + (8 * i)));
                  jfriends = Array.init nf friend }))
  | k -> Error (Printf.sprintf "unknown record kind %d" k)

let parse_header line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "svgic-wal"; "1"; "m"; m ] -> (
      match int_of_string_opt m with Some m when m > 0 -> Some m | _ -> None)
  | _ -> None

let scan ?f path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let size = in_channel_length ic in
      (match input_line ic with
      | exception End_of_file -> Error "empty wal file"
      | line -> (
          match parse_header line with
          | None -> Error "not a svgic-wal file"
          | Some m ->
              let pos = ref (pos_in ic) in
              let hdr = Bytes.create 8 in
              let buf = ref (Bytes.create 256) in
              let torn = ref None in
              let stop reason = torn := Some reason in
              let records = ref 0 and events = ref 0 and ticks = ref 0 in
              let first = ref 0L and last = ref 0L in
              while !torn = None && !pos < size do
                match
                  read ic ~hdr ~buf ~pos:!pos ~size ~min_len:13
                    ~max_len:0x0FFFFFFF
                with
                | Error e -> stop e
                | Ok len -> (
                    let seq = get_u64 !buf 0 in
                    if !last <> 0L && seq <> Int64.add !last 1L then
                      stop "seqno discontinuity"
                    else
                      match decode m !buf len with
                      | Error e -> stop e
                      | Ok r ->
                          if !first = 0L then first := seq;
                          last := seq;
                          incr records;
                          (match r with
                          | Tick _ -> incr ticks
                          | Event _ -> incr events);
                          pos := !pos + 8 + len;
                          (match f with None -> () | Some f -> f seq r))
              done;
              Ok
                { records = !records; events = !events; ticks = !ticks;
                  scan_m = m; first_seqno = !first; last_seqno = !last;
                  valid_end = !pos; file_size = size; torn = !torn }))

let repair path =
  match scan path with
  | Error _ as e -> e
  | Ok sc ->
      if sc.valid_end < sc.file_size then Unix.truncate path sc.valid_end;
      Ok { sc with file_size = sc.valid_end; torn = None }

let open_append ~path ~policy ?(min_seqno = 0L) () =
  match repair path with
  | Error _ as e -> e
  | Ok sc ->
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
      in
      let seqno =
        if Int64.compare sc.last_seqno min_seqno >= 0 then sc.last_seqno
        else min_seqno
      in
      Ok
        ( { oc; scratch = Bytes.create 256; seqno; policy; m = sc.scan_m;
            bytes = 0 },
          sc )
