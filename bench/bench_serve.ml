(* Online serving engine (Serve) under Poisson traffic.

   The headline pair is serve_tick incremental-vs-cold: the same
   drifted instance served by the long-lived engine (touched shards
   only, warm-started, incremental cut bookkeeping) against what a
   stateless deployment pays per tick (full partition + solve_round).
   The acceptance bar is >= 10x events/s at equal objective quality;
   the serve_throughput pair restates the same measurement per event.

   Two more rows characterize the engine's edges: serve_coalesce is
   the tick hot path without solves (submit + touched-set planning),
   asserted to allocate zero major-heap words per event in steady
   state — the coalescing tables are grown once and then only
   overwritten; serve_deadline runs the same traffic under a
   deliberately impossible per-tick budget and records that degraded
   shards still leave a valid bracket behind.

   Traffic model: event counts per tick are Poisson; targets follow a
   hot-pool skew (90% of deltas land in a small set of hot shards,
   the rest uniform) — VR shopping sessions cluster, and the skew is
   exactly what makes incremental serving pay: the touched set stays
   small while the event rate does not. Rows merge into
   BENCH_kernels.json next to the kernel rows (same discipline as
   pipeline_xl). *)

module Rng = Svgic_util.Rng
module Pool = Svgic_util.Pool
module Timer = Svgic_util.Timer
module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Instance = Svgic.Instance
module Shard = Svgic.Shard
module Serve = Svgic.Serve

(* Poisson sampler by inversion, chunked so exp(-lambda) never
   underflows at the rates used here. *)
let poisson rng lambda =
  let rec chunk acc remaining =
    let l = Float.min remaining 30.0 in
    let limit = exp (-.l) in
    let k = ref 0 and p = ref 1.0 in
    while
      p := !p *. Rng.uniform rng;
      !p > limit
    do
      incr k
    done;
    let acc = acc + !k in
    if remaining > 30.0 then chunk acc (remaining -. 30.0) else acc
  in
  chunk 0 lambda

(* Community-structured instance on flat arenas, keeping the
   generator's labels so sharding skips community detection (the
   partition quality is not what is measured here). *)
let serving_instance seed ~n ~communities ~m ~k =
  let rng = Rng.create seed in
  let g, labels =
    Generate.timik_like rng ~n ~communities ~attach:2 ~cross_frac:0.02
  in
  let pref = Float.Array.init (n * m) (fun _ -> Rng.float rng 1.0) in
  let tau =
    Float.Array.init (Graph.num_edges g * m) (fun _ -> Rng.float rng 0.5)
  in
  (Instance.of_flat ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau, labels)

type traffic = {
  gen : Rng.t;
  hot_users : int array;  (* members of the hot shard pool *)
  hot_frac : float;  (* share of pref deltas pinned to the hot pool *)
  n : int;
  m : int;
  edges : (int * int) array;
  rate : float;
}

let make_traffic seed ~labels ~hot_shards ~hot_frac ~rate inst =
  let n = Instance.n inst in
  let hot_users =
    Array.of_seq
      (Seq.filter
         (fun u -> labels.(u) < hot_shards)
         (Seq.init n (fun u -> u)))
  in
  {
    gen = Rng.create seed;
    hot_users;
    hot_frac;
    n;
    m = Instance.m inst;
    edges = Graph.edges (Instance.graph inst);
    rate;
  }

(* One event: 90% preference deltas (hot-pool skewed users), 10% tau
   deltas on uniform directed edges. External ids coincide with
   internal ones here — the traffic is purely value drift, so no
   structural tick ever renumbers. *)
let next_event tr =
  if Rng.bernoulli tr.gen 0.9 || tr.hot_frac >= 1.0 then
    let u =
      if Rng.bernoulli tr.gen tr.hot_frac && Array.length tr.hot_users > 0
      then Rng.pick tr.gen tr.hot_users
      else Rng.int tr.gen tr.n
    in
    Serve.Pref_delta
      { user = u; item = Rng.int tr.gen tr.m; value = Rng.uniform tr.gen }
  else
    let u, v = Rng.pick tr.gen tr.edges in
    Serve.Tau_delta
      { u; v; item = Rng.int tr.gen tr.m; value = 0.5 *. Rng.uniform tr.gen }

let submit_batch srv tr count =
  for _ = 1 to count do
    ignore (Serve.submit srv (next_event tr) : int option)
  done

let percentile sorted q =
  let len = Array.length sorted in
  sorted.(min (len - 1) (int_of_float (ceil (q *. float_of_int len)) - 1))

(* ---------------- incremental vs cold ----------------------------- *)

let serve_records ~smoke =
  let n = if smoke then 2_000 else 100_000 in
  let communities = if smoke then 20 else 1_000 in
  let m = if smoke then 6 else 6 and k = 4 in
  let ticks = if smoke then 4 else 12 in
  let rate = if smoke then 24.0 else 128.0 in
  let hot_shards = if smoke then 3 else 16 in
  let inst, labels = serving_instance (9500 + n) ~n ~communities ~m ~k in
  Printf.printf "serve: %d users, %d edges, %d communities\n%!" n
    (Instance.num_edges inst) communities;
  let t0 = Timer.start () in
  let srv =
    Serve.create ~labelling:(Shard.Labels labels) (Rng.create 11) inst
  in
  Printf.printf "  tick 0 (cold start): %.1f s\n%!" (Timer.elapsed_s t0);
  (* A serial twin on its own copy of the instance (an engine adopts
     and mutates its arenas) replays the same events: the
     incremental_serial row. Ticks alternate which engine goes first. *)
  let twin_inst, _ = serving_instance (9500 + n) ~n ~communities ~m ~k in
  let twin =
    Serve.create ~domains:1 ~labelling:(Shard.Labels labels) (Rng.create 11)
      twin_inst
  in
  let tr = make_traffic 4711 ~labels ~hot_shards ~hot_frac:0.9 ~rate inst in
  let stats = ref [] and twin_times = ref [] in
  (* Words per tick, read around each [Serve.tick] alone: the event
     submissions between ticks are not the tick's allocation. *)
  let tick_words = ref 0.0 and twin_words = ref 0.0 in
  let timed_tick engine batch words =
    List.iter (fun e -> ignore (Serve.submit engine e : int option)) batch;
    let w0 = Bench_kernels.window_start () in
    let s = Serve.tick engine in
    words := !words +. (Bench_kernels.words_now () -. w0);
    s
  in
  for i = 1 to ticks do
    let batch = List.init (poisson tr.gen rate) (fun _ -> next_event tr) in
    let s, s1 =
      if i land 1 = 1 then
        let s = timed_tick srv batch tick_words in
        (s, timed_tick twin batch twin_words)
      else
        let s1 = timed_tick twin batch twin_words in
        (timed_tick srv batch tick_words, s1)
    in
    stats := s :: !stats;
    twin_times := s1.Serve.elapsed_s :: !twin_times;
    Printf.printf "  tick %d: %.2f s, %d shards (%d warm); serial %.2f s\n%!"
      i s.Serve.elapsed_s s.Serve.shards_touched s.Serve.warm_hits
      s1.Serve.elapsed_s
  done;
  if Serve.fingerprint twin <> Serve.fingerprint srv then
    failwith "serve: the serial twin's state differs from the engine's";
  let stats = Array.of_list (List.rev !stats) in
  let sumf f = Array.fold_left (fun a s -> a +. f s) 0.0 stats in
  let sumi f = Array.fold_left (fun a s -> a + f s) 0 stats in
  let inc_s = sumf (fun s -> s.Serve.elapsed_s) in
  let applied = sumi (fun s -> s.Serve.events_applied) in
  let touched = sumi (fun s -> s.Serve.shards_touched) in
  let warm = sumi (fun s -> s.Serve.warm_hits) in
  let degraded = sumi (fun s -> s.Serve.degraded) in
  let times = Array.map (fun s -> s.Serve.elapsed_s) stats in
  Array.sort compare times;
  let inc_obj = Serve.objective srv in
  (* Cold side: what a stateless deployment re-runs per tick on the
     same (drifted) arenas — partition + solve_round, nothing warm. *)
  let cold_obj = ref 0.0 in
  let cold_ns, cold_w =
    Bench_kernels.time_kernel ~rounds:1 ~ops:1 (fun () ->
        let part = Shard.partition ~labelling:(Shard.Labels labels) inst in
        let res =
          Shard.solve_round ~rounding:(Shard.Avg_d { r = None })
            (Rng.create 13) part
        in
        cold_obj := res.Shard.objective)
  in
  Printf.printf "  cold re-solve: %.1f s\n%!" (cold_ns /. 1e9);
  let inc_ns = inc_s *. 1e9 /. float_of_int ticks in
  let obj_gap_pct = 100.0 *. (!cold_obj -. inc_obj) /. Float.abs !cold_obj in
  if Serve.bound srv > inc_obj +. 1e-6 then
    failwith "serve: incumbent fell below its own certified bound";
  let mean_events = float_of_int applied /. float_of_int ticks in
  let inc_note =
    Printf.sprintf
      "%d ticks, %.1f events/tick; touched %.1f shards/tick, %d/%d warm, %d \
       degraded; tick p50 %.1f ms p99 %.1f ms; objective %.1f vs cold %.1f \
       (%+.2f%%)"
      ticks mean_events
      (float_of_int touched /. float_of_int ticks)
      warm touched degraded
      (1e3 *. percentile times 0.50)
      (1e3 *. percentile times 0.99)
      inc_obj !cold_obj obj_gap_pct
  in
  let cold_note = "full partition + solve_round on the drifted instance" in
  let mk = Bench_kernels.mk in
  let avail = Pool.available_domains () in
  let inc_note =
    if avail > 1 then inc_note ^ "; " ^ Bench_kernels.fanout_note avail
    else inc_note
  in
  let twin_times = Array.of_list !twin_times in
  Array.sort compare twin_times;
  let twin_note =
    Printf.sprintf
      "same %d ticks at domains 1; tick p50 %.1f ms p99 %.1f ms; fingerprint \
       identical to incremental"
      ticks
      (1e3 *. percentile twin_times 0.50)
      (1e3 *. percentile twin_times 0.99)
  in
  let tick_rows =
    [
      mk ~alloc:cold_w ~domains:avail ~note:cold_note "serve_tick" "cold" n
        cold_ns;
      mk
        ~alloc:(!tick_words /. float_of_int ticks)
        ~domains:avail ~note:inc_note "serve_tick" "incremental" n inc_ns;
      mk
        ~alloc:(!twin_words /. float_of_int ticks)
        ~domains:1 ~note:twin_note "serve_tick" "incremental_serial" n
        (Array.fold_left ( +. ) 0.0 twin_times *. 1e9 /. float_of_int ticks);
    ]
  in
  let throughput_rows =
    [
      mk ~domains:avail "serve_throughput" "cold" n (cold_ns /. mean_events);
      mk ~domains:avail
        ~note:
          (Printf.sprintf "%.0f events/s sustained"
             (float_of_int applied /. inc_s))
        "serve_throughput" "incremental" n
        (inc_s *. 1e9 /. float_of_int applied);
    ]
  in
  (* The coalesce and deadline phases reuse the engine/instance but
     pin all traffic to the hot pool: their drain ticks should pay
     for the hot shards, not re-solve the whole partition. *)
  let hot_tr =
    make_traffic 4713 ~labels ~hot_shards ~hot_frac:1.0 ~rate inst
  in
  (inst, labels, hot_tr, srv, cold_ns, tick_rows @ throughput_rows)

(* ---------------- coalesce hot path: zero major-heap words -------- *)

(* submit + touched_preview only — the per-event cost of a saturated
   stream between solves. Steady state (tables grown, scratch sized)
   must allocate nothing on the major heap: minor-heap cells for keys
   and boxed floats are fine and die in the nursery, but a per-event
   major allocation would make event cost scale with GC pressure.
   Promotion is a GC-timing artifact, so the guard reads
   major_words - promoted_words: words allocated directly major. *)
let major_now () =
  let _minor, promoted, major = Gc.counters () in
  major -. promoted

let coalesce_records srv tr =
  let ops = 50_000 in
  let preview_every = 1_024 in
  let drain () = ignore (Serve.tick srv : Serve.tick_stats) in
  (* Warm-up: grows the coalescing tables to steady state. *)
  submit_batch srv tr ops;
  ignore (Serve.touched_preview srv : int array);
  drain ();
  let w0 = major_now () in
  let t = Timer.start () in
  for i = 1 to ops do
    ignore (Serve.submit srv (next_event tr) : int option);
    if i mod preview_every = 0 then
      ignore (Serve.touched_preview srv : int array)
  done;
  let dt = Timer.elapsed_s t in
  let major_per_op = (major_now () -. w0) /. float_of_int ops in
  drain ();
  if major_per_op > 0.05 then
    failwith
      (Printf.sprintf
         "serve_coalesce regression: %.3f major words/event (expected 0)"
         major_per_op);
  [
    Bench_kernels.mk ~alloc:major_per_op
      ~note:
        (Printf.sprintf
           "major-heap words/event (minor cells excluded); touched_preview \
            every %d events"
           preview_every)
      "serve_coalesce" "hot" ops
      (dt *. 1e9 /. float_of_int ops);
  ]

(* ---------------- deadline pressure ------------------------------- *)

(* A per-tick budget far below one shard re-solve: every touched
   shard must fall down the ladder, and the tick must still land with
   a bracket (bound <= objective) instead of blocking past the SLO.
   The engine is created on the already-drifted arenas the previous
   phases left behind; tick 0 runs under the same impossible budget. *)
let deadline_records ~smoke inst labels tr =
  let deadline_s = 0.002 in
  let ticks = if smoke then 3 else 6 in
  let srv =
    Serve.create ~labelling:(Shard.Labels labels) ~deadline_s (Rng.create 17)
      inst
  in
  let touched = ref 0 and degraded = ref 0 and total_s = ref 0.0 in
  for _ = 1 to ticks do
    submit_batch srv tr (poisson tr.gen tr.rate);
    let s = Serve.tick srv in
    touched := !touched + s.Serve.shards_touched;
    degraded := !degraded + s.Serve.degraded;
    total_s := !total_s +. s.Serve.elapsed_s
  done;
  let obj = Serve.objective srv and bound = Serve.bound srv in
  if not (Float.is_finite obj) || bound > obj +. 1e-6 then
    failwith "serve_deadline: degraded ticks broke the bracket";
  [
    Bench_kernels.mk
      ~note:
        (Printf.sprintf
           "%.0f ms/tick budget: %d of %d touched shards degraded; bracket \
            still valid (%.1f <= %.1f)"
           (1e3 *. deadline_s) !degraded !touched bound obj)
      "serve_deadline" "pressure"
      (Instance.n inst)
      (!total_s *. 1e9 /. float_of_int ticks);
  ]

(* ---------------- WAL durability overhead ------------------------- *)

let fresh_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "svgic-bench-%s-%d" tag (Unix.getpid ()))
  in
  Svgic.Checkpoint.ensure_dir d;
  d

(* Raw append hot path: a Pref frame encoded into the writer's scratch
   buffer and pushed to the channel, no fsync. The WAL must not turn
   the event stream into a GC workload, so the row hard-fails above a
   small constant words/event (the seqno and float-bits boxes). *)
let wal_append_records () =
  let dir = fresh_dir "wal-append" in
  let path = Filename.concat dir "wal.svgic" in
  let w = Svgic.Wal.create ~path ~m:6 ~policy:Svgic.Wal.Off in
  let i = ref 0 in
  let ops = 100_000 in
  let append_ns, append_w =
    Bench_kernels.time_kernel ~rounds:3 ~ops (fun () ->
        incr i;
        ignore
          (Svgic.Wal.append w
             (Svgic.Wal.Event
                (Svgic.Wal.Pref
                   { user = !i land 1023; item = !i mod 6; value = 0.5 }))
            : int64))
  in
  Svgic.Wal.close w;
  Sys.remove path;
  if append_w > 64.0 then
    failwith
      (Printf.sprintf
         "serve_wal append allocates %.1f words/event (budget 64)" append_w);
  (* One synced append: the per-tick fsync cost under Every_tick. *)
  let w = Svgic.Wal.create ~path ~m:6 ~policy:Svgic.Wal.Every_event in
  let fsync_ns, _ =
    Bench_kernels.time_kernel ~rounds:1 ~ops:64 (fun () ->
        ignore (Svgic.Wal.append w (Svgic.Wal.Tick 1) : int64))
  in
  Svgic.Wal.close w;
  Sys.remove path;
  ( append_ns,
    fsync_ns,
    [
      Bench_kernels.mk ~alloc:append_w
        ~note:"encode + buffered write of one Pref frame, no fsync"
        "serve_wal" "append" ops append_ns;
      Bench_kernels.mk ~note:"append + fsync of one Tick frame" "serve_wal"
        "fsync" 64 fsync_ns;
    ] )

(* End-to-end: the same live engine serving the same skewed traffic
   bare and then under each fsync policy (fresh directory each, the
   initial checkpoint excluded from tick timing, periodic checkpoints
   pushed past the horizon so the rows isolate WAL cost). The <10%
   acceptance bar is asserted on the deterministic decomposition
   (events/tick x append cost + one fsync, against the bare tick) —
   the measured end-to-end deltas ride along in the notes, where the
   tick-to-tick solver variance they include is visible rather than
   load-bearing. *)
let wal_records ~smoke srv tr ~append_ns ~fsync_ns =
  let ticks = if smoke then 2 else 4 in
  let n = Instance.n (Serve.instance srv) in
  let run_ticks () =
    let total = ref 0.0 and applied = ref 0 in
    for _ = 1 to ticks do
      submit_batch srv tr (poisson tr.gen tr.rate);
      let s = Serve.tick srv in
      total := !total +. s.Serve.elapsed_s;
      applied := !applied + s.Serve.events_applied
    done;
    (!total /. float_of_int ticks, !applied)
  in
  let bare_s, bare_applied = run_ticks () in
  Printf.printf "  wal: bare tick %.1f ms\n%!" (1e3 *. bare_s);
  let policy_row (name, policy) =
    let dir = fresh_dir ("wal-" ^ name) in
    Serve.enable_durability srv
      { Serve.dir; fsync = policy; checkpoint_every = 1_000_000; retain = 1 };
    let mean_s, applied = run_ticks () in
    let bytes = Serve.wal_bytes srv in
    Serve.disable_durability srv;
    let delta = 100.0 *. (mean_s -. bare_s) /. bare_s in
    Printf.printf "  wal: %s tick %.1f ms (%+.1f%%), %d bytes\n%!" name
      (1e3 *. mean_s) delta bytes;
    Bench_kernels.mk
      ~note:
        (Printf.sprintf
           "mean tick vs %.1f ms bare (%+.1f%%); %d events, %d WAL bytes"
           (1e3 *. bare_s) delta applied bytes)
      "serve_wal" name n (mean_s *. 1e9)
  in
  let rows =
    List.map policy_row
      [
        ("off", Svgic.Wal.Off);
        ("every_tick", Svgic.Wal.Every_tick);
        ("every_event", Svgic.Wal.Every_event);
      ]
  in
  let per_tick_events = float_of_int bare_applied /. float_of_int ticks in
  let every_tick_overhead =
    ((per_tick_events *. append_ns) +. fsync_ns) /. (bare_s *. 1e9)
  in
  Printf.printf "  wal: every_tick decomposed overhead %.3f%%\n%!"
    (100.0 *. every_tick_overhead);
  if (not smoke) && every_tick_overhead > 0.10 then
    failwith
      (Printf.sprintf "serve_wal: every_tick overhead %.1f%% exceeds 10%%"
         (100.0 *. every_tick_overhead));
  rows

(* ---------------- checkpoint codec -------------------------------- *)

(* One checkpoint of the live engine written (temp file, fsync,
   rename, directory fsync) and loaded (decode and every validation
   check), the two halves of the codec a recovery pays once each. The
   note carries the file size. *)
let checkpoint_records srv =
  let dir = fresh_dir "checkpoint" in
  Serve.enable_durability srv
    { Serve.dir; fsync = Svgic.Wal.Off; checkpoint_every = 1_000_000; retain = 1 };
  let path = ref "" in
  let ops = 5 in
  let write_ns, write_w =
    Bench_kernels.time_kernel ~rounds:3 ~ops (fun () -> path := Serve.checkpoint srv)
  in
  Serve.disable_durability srv;
  let bytes = (Unix.stat !path).Unix.st_size in
  let load_ns, load_w =
    Bench_kernels.time_kernel ~rounds:3 ~ops (fun () ->
        match Svgic.Checkpoint.load !path with
        | Ok _ -> ()
        | Error e -> failwith ("checkpoint load: " ^ e))
  in
  let n = Instance.n (Serve.instance srv) in
  Printf.printf "  checkpoint: %d bytes, write %.1f ms, load %.1f ms\n%!" bytes
    (write_ns /. 1e6) (load_ns /. 1e6);
  let note = Printf.sprintf "%d-byte checkpoint of %d users" bytes n in
  [
    Bench_kernels.mk ~alloc:write_w ~note "checkpoint" "write" n write_ns;
    Bench_kernels.mk ~alloc:load_w ~note "checkpoint" "load" n load_ns;
  ]

(* ---------------- crash recovery vs cold start -------------------- *)

(* Checkpoint + WAL-suffix recovery against what a stateless redeploy
   pays (the cold full partition + solve_round measured above). The
   recovered engine must be bit-identical to the live one — the same
   fingerprint the kill-matrix test checks — and the acceptance bar is
   >= 50x over cold at full scale. *)
let recover_records ~smoke ~cold_ns srv tr =
  let dir = fresh_dir "recover" in
  Serve.enable_durability srv
    { Serve.dir; fsync = Svgic.Wal.Every_tick; checkpoint_every = 2; retain = 2 };
  let ticks = 3 in
  for _ = 1 to ticks do
    submit_batch srv tr (poisson tr.gen tr.rate);
    ignore (Serve.tick srv : Serve.tick_stats)
  done;
  (* trailing events land in the WAL but stay pending, as at a crash *)
  submit_batch srv tr (poisson tr.gen tr.rate);
  let ckpt_bytes =
    List.fold_left
      (fun acc (p, _, _) -> acc + (Unix.stat p).Unix.st_size)
      0
      (Svgic.Checkpoint.list_files dir)
  in
  let fp = Serve.fingerprint srv in
  Serve.disable_durability srv;
  let t0 = Timer.start () in
  match Serve.recover ~dir () with
  | Error e -> failwith ("serve_recover: " ^ e)
  | Ok (r, rec_) ->
      let recover_ns = Timer.elapsed_s t0 *. 1e9 in
      Serve.disable_durability r;
      if Serve.fingerprint r <> fp then
        failwith "serve_recover: recovered state is not bit-identical";
      let speedup = cold_ns /. recover_ns in
      Printf.printf
        "  recover: %.2f s (checkpoint %.1f MB, %d events + %d ticks \
         replayed), %.0fx vs cold\n%!"
        (recover_ns /. 1e9)
        (float_of_int ckpt_bytes /. 1e6)
        rec_.Serve.replayed_events rec_.Serve.replayed_ticks speedup;
      if (not smoke) && speedup < 50.0 then
        failwith
          (Printf.sprintf "serve_recover: %.1fx vs cold is below the 50x bar"
             speedup);
      [
        Bench_kernels.mk
          ~note:
            (Printf.sprintf
               "checkpoint %d bytes, replayed %d events %d ticks; \
                fingerprint bit-identical; %.0fx vs cold re-solve"
               ckpt_bytes rec_.Serve.replayed_events rec_.Serve.replayed_ticks
               speedup)
          "serve_recover" "warm"
          (Instance.n (Serve.instance r))
          recover_ns;
      ]

(* ---------------- entry point ------------------------------------- *)

let run () =
  Bench_common.heading "serve" "online serving: incremental vs cold per tick";
  let smoke = Bench_kernels.smoke () in
  let inst, labels, tr, srv, cold_ns, serve_rows = serve_records ~smoke in
  let append_ns, fsync_ns, append_rows = wal_append_records () in
  (* Each phase serves the state the one before it left, so they run
     in sequence here rather than as operands of one [@] chain, which
     OCaml evaluates right to left. *)
  let coalesce_rows = coalesce_records srv tr in
  let wal_rows = wal_records ~smoke srv tr ~append_ns ~fsync_ns in
  let checkpoint_rows = checkpoint_records srv in
  let recover_rows = recover_records ~smoke ~cold_ns srv tr in
  let deadline_rows = deadline_records ~smoke inst labels tr in
  let records =
    serve_rows @ coalesce_rows @ append_rows @ wal_rows @ checkpoint_rows
    @ recover_rows @ deadline_rows
  in
  Bench_kernels.print_records records;
  let path = "BENCH_kernels.json" in
  Bench_xl.merge_into_json ~path records;
  Printf.printf "merged serve rows into %s\n" path
