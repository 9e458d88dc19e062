(* Repository benchmark: seeded workloads against the public API of the
   svgic libraries, with correctness gates, end-to-end metrics and a
   traced run for per-layer metrics. See perfbench/NOTES.md.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench.exe selftest

   The last line of standard output is the result object; a failed
   gate makes it [correct: false] and the exit status 1. *)

(* Every per-layer metric, in print order. A traced run prints all of
   them; a layer the workload never calls into reports 0. *)
let per_layer =
  [
    ("gen.events", "count");
    ("gen.lag_p90_ms", "ms");
    ("gen.busy_pct", "%");
    ("generate.instance_s", "s");
    ("serve.create_s", "s");
    ("serve.submit_ns_per_event", "ns");
    ("serve.ms_per_touched_shard", "ms");
    ("serve.shards_touched_per_tick", "count");
    ("serve.warm_hit_pct", "%");
    ("serve.structural_ticks", "count");
    ("serve.events_applied", "count");
    ("serve.events_dropped", "count");
    ("serve.preview_us", "us");
    ("serve.audit_s", "s");
    ("wal.bytes_per_event", "B");
    ("wal.scan_s", "s");
    ("checkpoint.bytes", "B");
    ("checkpoint.write_s", "s");
    ("checkpoint.load_s", "s");
    ("recover.replayed_ticks", "count");
    ("recover.replayed_events", "count");
    ("shard.partition_s", "s");
    ("shard.count", "count");
    ("shard.cut_pairs", "count");
    ("community.detect_s", "s");
    ("relaxation.solve_s", "s");
    ("relaxation.shard_p50_ms", "ms");
    ("relaxation.exact_shards", "count");
    ("relaxation.fw_shards", "count");
    ("relaxation.pivots", "count");
    ("relaxation.refactorizations", "count");
    ("relaxation.fw_gap_mean", "scaled");
    ("algorithms.round_s", "s");
    ("polish.repair_s", "s");
    ("polish.endpoints", "count");
    ("polish.repair_gain", "utility");
    ("config.eval_s", "s");
    ("pool.domains", "count");
    ("pool.efficiency", "ratio");
    ("trace.coverage_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let emit_layer measured =
  List.iter
    (fun (name, unit_) ->
      let v =
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, u, v) ->
            if u <> unit_ then failwith (Printf.sprintf "%s: unit %s, expected %s" name u unit_);
            v
        | None -> 0.0
      in
      Report.metric name unit_ v)
    per_layer;
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n per_layer) then failwith ("unlisted metric " ^ n))
    measured

type workload = Serve of Serve_wl.shape | Plan of Plan_wl.shape

let workloads =
  [
    ("serve_drift", Serve Serve_wl.drift);
    ("serve_churn", Serve Serve_wl.churn);
    ("plan_large", Plan Plan_wl.large);
    ("plan_unlabelled", Plan Plan_wl.unlabelled);
  ]

let run ~work ~trace_dir name seed seconds traced =
  let attempted, failed =
    match (List.assoc name workloads, traced) with
    | Serve shape, false -> Serve_wl.measure ~work shape seed seconds
    | Plan shape, false -> Plan_wl.measure ~work shape seed seconds
    | Serve shape, true ->
        let layer, a, f = Serve_wl.measure_traced ~work shape seed seconds in
        emit_layer layer;
        (a, f)
    | Plan shape, true ->
        let layer, a, f = Plan_wl.measure_traced shape seed in
        emit_layer layer;
        (a, f)
  in
  if traced then begin
    let path =
      Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.jsonl" name seed)
    in
    Spans.write path;
    Printf.printf "trace: %d spans written to %s\n%!" (Array.length (Spans.spans ())) path
  end;
  Report.result ~attempted ~failed

(* ---------------- self-test --------------------------------------- *)

(* Tiny-scale determinism check: one seed gives identical per-tick
   batches, objective and fingerprint on two runs; two seeds differ. *)
let selftest () =
  let module Serve = Svgic.Serve in
  let shape =
    { Serve_wl.churn with users = 240; communities = 6; rate = 200.0; cadence = 0.02 }
  in
  let serve_once seed =
    let seeds = Serve_wl.seeds_of seed in
    let srv, labels, _, _ = Serve_wl.bring_up shape seeds in
    let inst = Serve.instance srv in
    let sched =
      Inputs.schedule
        (Svgic_util.Rng.create seeds.Serve_wl.sched_seed)
        inst ~labels (Serve_wl.traffic shape ~ticks:12)
    in
    let windows = sched.Inputs.windows in
    let digests = Array.map (Inputs.digest (Svgic.Instance.m inst)) windows in
    let structural = ref false in
    Array.iter
      (fun (w : Inputs.window) ->
        Array.iter
          (fun e ->
            (match e with Serve.Join _ | Serve.Leave _ -> structural := true | _ -> ());
            ignore (Serve.submit srv e : int option))
          w.events;
        ignore (Serve.tick srv : Serve.tick_stats))
      windows;
    (digests, Serve.objective srv, Serve.fingerprint srv, !structural)
  in
  let plan_once seed =
    let shape =
      {
        Plan_wl.unlabelled with
        users = 60;
        source = Plan_wl.Unlabelled { communities = 3; p_in = 0.2; p_out = 0.01 };
      }
    in
    let inst_seed, plan_seed = Plan_wl.seeds_of seed in
    let inst, labelling = Plan_wl.generate shape inst_seed in
    let part = Svgic.Shard.partition ~labelling inst in
    let res =
      Svgic.Shard.solve_round ~rounding:shape.Plan_wl.rounding
        (Svgic_util.Rng.create plan_seed) part
    in
    res.Svgic.Shard.objective
  in
  let d1, o1, f1, s1 = serve_once 1 and d1', o1', f1', _ = serve_once 1 in
  let d2, o2, f2, _ = serve_once 2 in
  Report.gate "serve: schedule has joins/leaves" s1 "";
  Report.gate "serve: same seed, same batches" (d1 = d1')
    (Printf.sprintf "%d windows" (Array.length d1));
  Report.gate "serve: same seed, same objective" (Report.same_float o1 o1')
    (Printf.sprintf "%.17g" o1);
  Report.gate "serve: same seed, same fingerprint" (f1 = f1') (Printf.sprintf "%08x" f1);
  Report.gate "serve: other seed, other batches" (d1 <> d2) "";
  Report.gate "serve: other seed, other objective" (not (Report.same_float o1 o2))
    (Printf.sprintf "%.17g vs %.17g" o1 o2);
  Report.gate "serve: other seed, other fingerprint" (f1 <> f2)
    (Printf.sprintf "%08x vs %08x" f1 f2);
  let p1 = plan_once 1 and p1' = plan_once 1 and p2 = plan_once 2 in
  Report.gate "plan: same seed, same objective" (Report.same_float p1 p1')
    (Printf.sprintf "%.17g" p1);
  Report.gate "plan: other seed, other objective" (not (Report.same_float p1 p2))
    (Printf.sprintf "%.17g vs %.17g" p1 p2);
  !Report.gates_failed = 0

(* ---------------- command line ------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref 0 and work = ref (Filename.concat ".bench_build" "perfbench") in
  let selftest_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 1 for the traced run (per-layer metrics)");
      ("--nproc", Arg.Set_int nproc, " online CPUs, as reported by the launcher");
      ("--work", Arg.Set_string work, " scratch directory for durability files and traces");
    ]
  in
  Arg.parse (Arg.align spec)
    (function
      | "selftest" -> selftest_mode := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 | selftest";
  if !selftest_mode then exit (if selftest () then 0 else 1);
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("unknown workload " ^ !workload ^ "; expected one of "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  end;
  let traced = !trace = 1 in
  Svgic.Checkpoint.ensure_dir !work;
  let run_dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Serve_wl.rm_rf run_dir;
  Svgic.Checkpoint.ensure_dir run_dir;
  Report.host ~nproc:!nproc ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced;
  let ok =
    Fun.protect
      ~finally:(fun () -> Serve_wl.rm_rf run_dir)
      (fun () -> run ~work:run_dir ~trace_dir:!work !workload !seed !seconds traced)
  in
  exit (if ok then 0 else 1)
