(* Serve workloads: an online session under open-loop traffic, then a
   crash and recoveries from copies of its durability directory.

   serve_drift — value drift only (preference and τ deltas, hot-pool
     skewed): warm per-shard re-solves do the work; no WAL while the
     traffic runs.
   serve_churn — the same shape at a lower rate with joins and leaves
     mixed in, under a WAL (fsync every tick) and periodic checkpoints:
     structural rebuilds, cold re-solves of reshaped shards, WAL
     appends and checkpoint writes, then WAL replay on recovery.

   The open loop: tick [j] is scheduled at [(j+1)·cadence] from the
   start of the run and carries exactly the events due in window [j];
   if the previous tick overran, it starts late and its events wait
   (that wait is part of their latency). *)

module Rng = Svgic_util.Rng
module Pool = Svgic_util.Pool
module Stats = Svgic_util.Stats
module Timer = Svgic_util.Timer
module Shard = Svgic.Shard
module Serve = Svgic.Serve
module Checkpoint = Svgic.Checkpoint
module Wal = Svgic.Wal

let now = Svgic_util.Mclock.now_s

type shape = {
  users : int;
  communities : int;
  items : int;
  slots : int;
  cross_frac : float;  (** cross-community edges per user *)
  rate : float;
  cadence : float;
  churn : bool;  (** joins/leaves in the traffic, durability during the run *)
}

let drift =
  {
    users = 3_000;
    communities = 100;
    items = 6;
    slots = 4;
    cross_frac = 0.1;
    rate = 120.0;
    cadence = 0.1;
    churn = false;
  }

let churn = { drift with rate = 60.0; churn = true }

let setups = 5
let recoveries = 5
let checkpoint_every = 24
let graph_seed = 1500

(* Measured ticks and the untimed WAL-suffix ticks that follow them.
   The measured run spans [seconds], and at least 100 ticks so that the
   p90 tick has ten beyond it. Either way a crash leaves a WAL suffix
   of [checkpoint_every / 2] ticks to replay: a durable run is
   stretched to end half-way through a checkpoint interval; drift,
   which runs without a WAL, switches durability on after the measured
   ticks and runs that many more. *)
let ticks_for shape seconds =
  let t = max 100 (int_of_float (Float.round (float seconds /. shape.cadence))) in
  let half = checkpoint_every / 2 in
  if not shape.churn then (t, half)
  else
    let q = (t - half + checkpoint_every - 1) / checkpoint_every in
    ((max 1 q * checkpoint_every) + half, 0)

let traffic shape ~ticks =
  {
    Inputs.rate = shape.rate;
    cadence = shape.cadence;
    ticks;
    hot_share = 0.1;
    structural_every = (if shape.churn then 5 else 0);
  }

type seeds = { inst_seed : int; sched_seed : int; engine_seed : int }

let seeds_of seed =
  let r = Rng.create seed in
  let a = Rng.int r 1_000_000_000 in
  let b = Rng.int r 1_000_000_000 in
  { inst_seed = a; sched_seed = b; engine_seed = Rng.int r 1_000_000_000 }

(* [Shard.partition] in a span that records the shard and cut counts. *)
let traced_partition ~labelling inst =
  Spans.span "shard.partition"
    ~counts:(fun p ->
      [
        ("shards", float (Array.length p.Shard.shards));
        ("cut_pairs", float (Array.length p.Shard.cut_pairs));
      ])
    (fun () -> Shard.partition ~labelling inst)

(* One session bring-up: instance generation, then Serve.create
   (partition plus the cold solve of every shard). *)
let bring_up shape seeds =
  Gc.compact ();
  let (inst, labels), gen_s =
    Timer.time (fun () ->
        Spans.span "generate.instance" (fun () ->
            Inputs.timik ~graph_seed (Rng.create seeds.inst_seed) ~n:shape.users
              ~communities:shape.communities ~cross_frac:shape.cross_frac
              ~m:shape.items ~k:shape.slots))
  in
  if !Spans.on then
    ignore (traced_partition ~labelling:(Shard.Labels labels) inst : Shard.partition);
  let srv, create_s =
    Timer.time (fun () ->
        Spans.span "serve.create" (fun () ->
            Serve.create ~labelling:(Shard.Labels labels)
              (Rng.create seeds.engine_seed) inst))
  in
  (srv, labels, gen_s, create_s)

let rec sleep_until t =
  let d = t -. now () in
  if d > 0.0 then begin
    Unix.sleepf d;
    sleep_until t
  end

type loop = {
  tick_s : float array;  (** Serve.tick wall per tick *)
  lag_s : float array;  (** tick start minus its schedule *)
  latency_s : float array;  (** per event: due time to end of its tick *)
  stats : Serve.tick_stats array;
  submit_s : float;
  preview_s : float;
  wall_s : float;
  events : int;
  bracket_ok : bool;  (** bound <= objective after every tick *)
}

let tick_counts (s : Serve.tick_stats) =
  [
    ("events_applied", float s.events_applied);
    ("events_dropped", float s.events_dropped);
    ("shards_touched", float s.shards_touched);
    ("warm_hits", float s.warm_hits);
    ("degraded", float s.degraded);
    ("structural", if s.structural then 1.0 else 0.0);
  ]

let run_loop shape srv (windows : Inputs.window array) =
  let nt = Array.length windows in
  let tick_s = Array.make nt 0.0 and lag_s = Array.make nt 0.0 in
  let latency = ref [] and stats = ref [] in
  let submit_s = ref 0.0 and preview_s = ref 0.0 in
  let events = ref 0 and bracket_ok = ref true in
  let t0 = now () in
  for j = 0 to nt - 1 do
    let w = windows.(j) in
    let scheduled = t0 +. (float (j + 1) *. shape.cadence) in
    if now () < scheduled then Spans.span "gen.idle" (fun () -> sleep_until scheduled);
    let start = now () in
    lag_s.(j) <- start -. scheduled;
    let (), sub =
      Timer.time (fun () ->
          Spans.span "serve.submit"
            ~counts:(fun () -> [ ("events", float (Array.length w.events)) ])
            (fun () ->
              Array.iter (fun e -> ignore (Serve.submit srv e : int option)) w.events))
    in
    submit_s := !submit_s +. sub;
    events := !events + Array.length w.events;
    if !Spans.on then begin
      let (_ : int array), pv =
        Timer.time (fun () ->
            Spans.span "serve.touched_preview" (fun () -> Serve.touched_preview srv))
      in
      preview_s := !preview_s +. pv
    end;
    let st, tk =
      Timer.time (fun () ->
          Spans.span "serve.tick" ~counts:tick_counts (fun () -> Serve.tick srv))
    in
    let stop = now () in
    tick_s.(j) <- tk;
    stats := st :: !stats;
    if st.Serve.bound > st.Serve.objective +. (1e-9 *. Float.abs st.Serve.objective)
    then bracket_ok := false;
    Array.iter (fun d -> latency := (stop -. (t0 +. d)) :: !latency) w.due
  done;
  {
    tick_s;
    lag_s;
    latency_s = Array.of_list !latency;
    stats = Array.of_list (List.rev !stats);
    submit_s = !submit_s;
    preview_s = !preview_s;
    wall_s = now () -. t0;
    events = !events;
    bracket_ok = !bracket_ok;
  }

(* ---------------- crash and recovery ------------------------------ *)

(* A crash leaves the durability directory on disk, so a copy is
   synced before a recovery runs on it: the recovery's own fsyncs must
   not pay for writing the copy out. *)
let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc

let copy_dir src dst =
  Checkpoint.ensure_dir dst;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src);
  let fd = Unix.openfile dst [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let durability dir =
  { Serve.dir; fsync = Wal.Every_tick; checkpoint_every; retain = 2 }

type recovery = {
  recover_s : float array;
  replayed_ticks : int;
  replayed_events : int;
  wal_scan_s : float;
  ckpt_load_s : float;
  ckpt_write_s : float;
  ckpt_bytes : int;
}

(* The crash: events of the trailing window are submitted (and logged)
   but never ticked, then the WAL is closed where it stands. Each
   recovery runs on a fresh copy of the directory and must come back
   with the live engine's fingerprint and pass its audit. [between]
   runs after every recovery but the last. *)
let crash_and_recover ~work ~between srv (sched : Inputs.schedule) =
  let live = Filename.concat work "live" in
  Array.iter (fun e -> ignore (Serve.submit srv e : int option)) sched.trailing.events;
  let fp = Serve.fingerprint srv in
  Serve.disable_durability srv;
  let wal_scan_s =
    let r, dt =
      Timer.time (fun () ->
          Spans.span "wal.scan" (fun () -> Wal.scan (Filename.concat live "wal.svgic")))
    in
    Report.gate "wal scan" (Result.is_ok r)
      (match r with Ok s -> Printf.sprintf "%d records" s.Wal.records | Error e -> e);
    dt
  in
  let ckpt_load_s =
    match List.rev (Checkpoint.list_files live) with
    | [] ->
        Report.gate "checkpoint present" false live;
        0.0
    | (path, _, _) :: _ ->
        let r, dt =
          Timer.time (fun () ->
              Spans.span "checkpoint.load" (fun () -> Checkpoint.load path))
        in
        Report.gate "checkpoint load" (Result.is_ok r)
          (match r with Ok _ -> Filename.basename path | Error e -> e);
        dt
  in
  let times = Array.make recoveries 0.0 in
  let replayed = ref (0, 0) and write = ref (0.0, 0) in
  for i = 0 to recoveries - 1 do
    let dir = Filename.concat work (Printf.sprintf "recover-%d" i) in
    copy_dir live dir;
    Spans.set_run (10 + i);
    Gc.compact ();
    let r, dt =
      Timer.time (fun () ->
          Spans.span "serve.recover"
            ~counts:(function
              | Ok (_, info) ->
                  [
                    ("replayed_ticks", float info.Serve.replayed_ticks);
                    ("replayed_events", float info.Serve.replayed_events);
                  ]
              | Error _ -> [])
            (fun () ->
              Serve.recover ~fsync:Wal.Every_tick ~checkpoint_every ~retain:2 ~dir ()))
    in
    times.(i) <- dt;
    Printf.printf "recovery %d: %.4f s\n" (i + 1) dt;
    (match r with
    | Error e -> Report.gate "recover" false e
    | Ok (eng, info) ->
        replayed := (info.Serve.replayed_ticks, info.Serve.replayed_events);
        let fp' = Serve.fingerprint eng in
        if i = 0 || fp' <> fp then
          Report.gate "recovered fingerprint" (fp' = fp)
            (Printf.sprintf "%08x vs live %08x" fp' fp);
        let a = Spans.span "serve.audit" (fun () -> Serve.audit eng) in
        if i = 0 || not a.Serve.audit_ok then
          Report.gate "audit after recovery" a.Serve.audit_ok
            (Printf.sprintf "cut drift %g, objective drift %g" a.Serve.cut_drift
               a.Serve.objective_drift);
        if i = recoveries - 1 && !Spans.on then begin
          (* A forced checkpoint of a recovered session once its
             pending events are ticked in. *)
          ignore (Serve.tick eng : Serve.tick_stats);
          let path, dt =
            Timer.time (fun () -> Spans.span "checkpoint.write" (fun () -> Serve.checkpoint eng))
          in
          write := (dt, (Unix.stat path).Unix.st_size)
        end;
        Serve.disable_durability eng);
    rm_rf dir;
    if i < recoveries - 1 then between ()
  done;
  Spans.set_run 0;
  {
    recover_s = times;
    replayed_ticks = fst !replayed;
    replayed_events = snd !replayed;
    wal_scan_s;
    ckpt_load_s;
    ckpt_write_s = fst !write;
    ckpt_bytes = snd !write;
  }

(* ---------------- one session ------------------------------------- *)

type session = {
  gen_s : float array;
  create_s : float array;
  loop : loop;
  recovery : recovery option;
  objective : float;
  bound : float;
  wal_bytes : int;  (** WAL size on disk at the crash *)
  wal_events : int;  (** events the WAL holds at the crash *)
  audit_end_s : float;
}

(* A bring-up, the open loop and the audit; with [crash], the
   crash/recovery tail. The other [setups - 1] bring-ups run between
   the recoveries, and any left over after them. The machine's speed
   shifts every few seconds, so samples taken back to back share one
   speed; interleaving spreads both kinds of sample over more of the
   run. *)
let session ~work ~setups ~crash shape seeds seconds =
  let live = Filename.concat work "live" in
  rm_rf live;
  let srv, labels, gen0, create0 = bring_up shape seeds in
  let later = ref [] in
  let set_up_again () =
    if List.length !later < setups - 1 then begin
      let _, _, g, c = bring_up shape seeds in
      later := (g, c) :: !later
    end
  in
  let measured, suffix = ticks_for shape seconds in
  let sched =
    Inputs.schedule (Rng.create seeds.sched_seed) (Serve.instance srv) ~labels
      (traffic shape ~ticks:(measured + suffix))
  in
  if shape.churn then Serve.enable_durability srv (durability live);
  Spans.set_run 1;
  let loop = run_loop shape srv (Array.sub sched.windows 0 measured) in
  Spans.set_run 0;
  let objective = Serve.objective srv and bound = Serve.bound srv in
  let a, audit_end_s =
    Timer.time (fun () -> Spans.span "serve.audit" (fun () -> Serve.audit srv))
  in
  Report.gate "bound <= objective (ticks)" loop.bracket_ok
    (Printf.sprintf "%d ticks; final %.6f <= %.6f" (Array.length loop.tick_s)
       bound objective);
  Report.gate "audit at end of run" a.Serve.audit_ok
    (Printf.sprintf "cut drift %g, objective drift %g" a.Serve.cut_drift
       a.Serve.objective_drift);
  (* The lag may not grow: a backlog at the offered rate shows as late
     ticks piling up towards the end of the run. *)
  let nt = Array.length loop.lag_s in
  let q = max 1 (nt / 4) in
  let first = Stats.median (Array.sub loop.lag_s 0 q) in
  let last = Stats.median (Array.sub loop.lag_s (nt - q) q) in
  Report.gate "no backlog" (last -. first < shape.cadence)
    (Printf.sprintf "median lag %.2f ms in the first quarter, %.2f ms in the last"
       (1e3 *. first) (1e3 *. last));
  let recovery, wal_bytes, wal_events =
    if not crash then begin
      Serve.disable_durability srv;
      (None, 0, 0)
    end
    else begin
      let logged = ref (if shape.churn then loop.events else 0) in
      if not shape.churn then begin
        Serve.enable_durability srv (durability live);
        Array.iter
          (fun (w : Inputs.window) ->
            Array.iter (fun e -> ignore (Serve.submit srv e : int option)) w.events;
            logged := !logged + Array.length w.events;
            let st = Serve.tick srv in
            let tol = 1e-9 *. Float.abs st.Serve.objective in
            Report.gate "bound <= objective (WAL suffix)"
              (st.Serve.bound <= st.Serve.objective +. tol)
              (Printf.sprintf "tick %d" st.Serve.tick))
          (Array.sub sched.windows measured suffix)
      end;
      let r = crash_and_recover ~work ~between:set_up_again srv sched in
      let bytes = (Unix.stat (Filename.concat live "wal.svgic")).Unix.st_size in
      (Some r, bytes, !logged + Array.length sched.trailing.events)
    end
  in
  rm_rf live;
  while List.length !later < setups - 1 do
    set_up_again ()
  done;
  let ups = Array.of_list ((gen0, create0) :: List.rev !later) in
  Array.iteri
    (fun i (g, c) ->
      Printf.printf "set-up %d: generate %.4f s, Serve.create %.4f s\n" (i + 1) g c)
    ups;
  {
    gen_s = Array.map fst ups;
    create_s = Array.map snd ups;
    loop;
    recovery;
    objective;
    bound;
    wal_bytes;
    wal_events;
    audit_end_s;
  }

let sum_stats f (l : loop) = Array.fold_left (fun acc s -> acc + f s) 0 l.stats

(* Untraced run: every end-to-end metric. *)
let measure ~work shape seed seconds =
  let seeds = seeds_of seed in
  let s = session ~work ~setups ~crash:true shape seeds seconds in
  let l = s.loop in
  let r = Option.get s.recovery in
  let setup = Array.map2 ( +. ) s.gen_s s.create_s in
  let touched = sum_stats (fun s -> s.Serve.shards_touched) l in
  let degraded = sum_stats (fun s -> s.Serve.degraded) l in
  let m = Report.metric in
  m "setup_s" "s" (Stats.median setup);
  m "solve_s" "s" (Stats.median s.create_s);
  m "event_p50_ms" "ms" (1e3 *. Stats.quantile l.latency_s 0.5);
  m "event_p90_ms" "ms" (1e3 *. Stats.quantile l.latency_s 0.9);
  m "tick_p50_ms" "ms" (1e3 *. Stats.quantile l.tick_s 0.5);
  m "tick_p90_ms" "ms" (1e3 *. Stats.quantile l.tick_s 0.9);
  m "recover_s" "s" (Stats.median r.recover_s);
  m "objective" "utility" s.objective;
  m "gap_pct" "%" (100.0 *. (s.objective -. s.bound) /. s.objective);
  m "clean_solve_pct" "%"
    (100.0 *. float (touched - degraded) /. float (max 1 touched));
  m "peak_rss_mb" "MB" (Report.peak_rss_mb ());
  let dropped = sum_stats (fun s -> s.Serve.events_dropped) l in
  (l.events, dropped)

(* Traced run: an untraced reference pass of the same session, then
   the traced pass with the crash/recovery tail; per-layer metrics. *)
let measure_traced ~work shape seed seconds =
  let seeds = seeds_of seed in
  let busy l = l.submit_s +. Report.sum l.tick_s in
  let reference = session ~work ~setups:1 ~crash:false shape seeds seconds in
  Spans.on := true;
  let s = session ~work ~setups:1 ~crash:true shape seeds seconds in
  Spans.on := false;
  let l = s.loop in
  let r = Option.get s.recovery in
  let ticks = Array.length l.tick_s in
  let touched = sum_stats (fun s -> s.Serve.shards_touched) l in
  let covered =
    List.fold_left
      (fun acc name -> acc +. Report.sum (Spans.durations name))
      0.0
      [ "gen.idle"; "serve.submit"; "serve.touched_preview"; "serve.tick" ]
  in
  let self = Spans.self_by_name () in
  let m name unit_ v = (name, unit_, v) in
  let layer =
    [
      m "gen.events" "count" (float l.events);
      m "gen.lag_p90_ms" "ms" (1e3 *. Stats.quantile l.lag_s 0.9);
      m "gen.busy_pct" "%"
        (100.0 *. (busy l +. l.preview_s) /. l.wall_s);
      m "generate.instance_s" "s" s.gen_s.(0);
      m "serve.create_s" "s" s.create_s.(0);
      m "serve.submit_ns_per_event" "ns" (1e9 *. l.submit_s /. float (max 1 l.events));
      m "serve.ms_per_touched_shard" "ms"
        (1e3 *. Report.sum l.tick_s /. float (max 1 touched));
      m "serve.shards_touched_per_tick" "count" (float touched /. float ticks);
      m "serve.warm_hit_pct" "%"
        (100.0 *. float (sum_stats (fun s -> s.Serve.warm_hits) l) /. float (max 1 touched));
      m "serve.structural_ticks" "count"
        (float (sum_stats (fun s -> if s.Serve.structural then 1 else 0) l));
      m "serve.events_applied" "count" (float (sum_stats (fun s -> s.Serve.events_applied) l));
      m "serve.events_dropped" "count" (float (sum_stats (fun s -> s.Serve.events_dropped) l));
      m "serve.preview_us" "us" (1e6 *. l.preview_s /. float ticks);
      m "serve.audit_s" "s" s.audit_end_s;
      m "wal.bytes_per_event" "B" (float s.wal_bytes /. float (max 1 s.wal_events));
      m "wal.scan_s" "s" r.wal_scan_s;
      m "checkpoint.bytes" "B" (float r.ckpt_bytes);
      m "checkpoint.write_s" "s" r.ckpt_write_s;
      m "checkpoint.load_s" "s" r.ckpt_load_s;
      m "recover.replayed_ticks" "count" (float r.replayed_ticks);
      m "recover.replayed_events" "count" (float r.replayed_events);
      m "shard.partition_s" "s" (Spans.self_of self "shard.partition");
      m "shard.count" "count" (Spans.sum_count "shard.partition" "shards");
      m "shard.cut_pairs" "count" (Spans.sum_count "shard.partition" "cut_pairs");
      m "pool.domains" "count" (float (Pool.available_domains ()));
      m "trace.coverage_pct" "%" (100.0 *. covered /. l.wall_s);
      m "trace.overhead_pct" "%"
        (100.0 *. (busy l -. busy reference.loop) /. busy reference.loop);
    ]
  in
  Report.gate "trace coverage" (covered >= 0.95 *. l.wall_s)
    (Printf.sprintf "submit+preview+tick+idle cover %.1f%% of the run (>= 95%%)"
       (100.0 *. covered /. l.wall_s));
  let dropped = sum_stats (fun s -> s.Serve.events_dropped) l in
  (layer, l.events, dropped)
