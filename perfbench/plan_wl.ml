(* Plan workloads: the offline sharded planner the paper evaluates —
   partition, per-shard relaxation + rounding, stitch, cut repair.

   plan_large — labelled Timik-like communities of about 300 users at
     m = 12: every shard is past the exact-LP budget, so every shard
     goes to Frank–Wolfe; AVG best-of-9 rounding.
   plan_unlabelled — planted communities given without labels, so
     greedy modularity has to find them; exact per-shard LPs and
     AVG-D rounding.

   A plan is one request that publishes every user's configuration at
   once: the workload repeats it back to back (closed loop), so a plan
   is both the tick and every event's latency. Its durable form is the
   instance file plus the configuration ([Serialize]); recovery reads
   both back and re-verifies them. *)

module Rng = Svgic_util.Rng
module Pool = Svgic_util.Pool
module Stats = Svgic_util.Stats
module Timer = Svgic_util.Timer
module Community = Svgic_graph.Community
module Instance = Svgic.Instance
module Shard = Svgic.Shard
module Relaxation = Svgic.Relaxation
module Algorithms = Svgic.Algorithms
module Config = Svgic.Config
module Polish = Svgic.Polish
module Serialize = Svgic.Serialize

type source =
  | Labelled of { communities : int }
  | Unlabelled of { communities : int; p_in : float; p_out : float }

type shape = {
  users : int;
  items : int;
  slots : int;
  source : source;
  rounding : Shard.rounding;
}

let large =
  {
    users = 1_200;
    items = 12;
    slots = 4;
    source = Labelled { communities = 4 };
    rounding = Shard.Avg { repeats = 9; advanced_sampling = true };
  }

let unlabelled =
  {
    users = 240;
    items = 6;
    slots = 4;
    source = Unlabelled { communities = 8; p_in = 0.2; p_out = 0.003 };
    rounding = Shard.Avg_d { r = None };
  }

let min_plans = 3
let setups_per_round = 5
let reloads_per_plan = 3

(* Instance (validated, as a planner validates its input) and the
   labelling the planner is given. *)
let generate shape inst_seed =
  let rng = Rng.create inst_seed in
  let inst, labelling =
    match shape.source with
    | Labelled { communities } ->
        let inst, labels =
          Inputs.timik ~graph_seed:1200 rng ~n:shape.users ~communities
            ~cross_frac:0.02
            ~m:shape.items ~k:shape.slots
        in
        (inst, Shard.Labels labels)
    | Unlabelled { communities; p_in; p_out } ->
        ( Inputs.planted ~graph_seed:240 rng ~n:shape.users ~communities ~p_in ~p_out
            ~m:shape.items ~k:shape.slots,
          Shard.Modularity )
  in
  (match Instance.validate inst with
  | Ok () -> ()
  | Error _ -> failwith "generated instance fails Instance.validate");
  (inst, labelling)

let seeds_of seed =
  let r = Rng.create seed in
  let a = Rng.int r 1_000_000_000 in
  (a, Rng.int r 1_000_000_000)

(* The checks every plan must pass: certificate, feasibility, and an
   objective that re-evaluates to the reported value. *)
let check_plan (part : Shard.partition) (res : Shard.result) =
  let src = part.Shard.source in
  Report.gate "bound <= objective" (res.Shard.bound <= res.Shard.objective)
    (Printf.sprintf "%.6f <= %.6f" res.Shard.bound res.Shard.objective);
  let valid = Config.validate src (Config.assignment res.Shard.config) in
  Report.gate "Config.validate" (Result.is_ok valid)
    (match valid with Ok () -> "ok" | Error e -> e);
  let again = Config.total_utility src res.Shard.config in
  Report.gate "objective re-evaluates" (Report.same_float again res.Shard.objective)
    (Printf.sprintf "%.17g" again)

(* ---------------- serial replica of Shard.solve_round -------------- *)

(* [Shard.solve_round]'s per-shard backend: Auto, with an unresolved
   Frank–Wolfe fan-out pinned to one domain. *)
let serial_backend inst =
  match Relaxation.choose_backend inst with
  | Relaxation.Frank_wolfe ({ domains = None; _ } as fw) ->
      Relaxation.Frank_wolfe { fw with domains = Some 1 }
  | b -> b

let relax_counts (r : Relaxation.t) =
  let exact = r.Relaxation.fw_gap = None in
  let pivots, refactor =
    match r.Relaxation.lp_stats with
    | Some s -> (s.Relaxation.pivots, s.Relaxation.factor.refactorizations)
    | None -> (0, 0)
  in
  [
    ("exact", if exact then 1.0 else 0.0);
    ("fw", if exact then 0.0 else 1.0);
    ("fw_gap", Option.value r.Relaxation.fw_gap ~default:0.0);
    ("pivots", float pivots);
    ("refactorizations", float refactor);
  ]

(* The same work as [Shard.solve_round] (clean path, no certification,
   repair_passes 2), one shard after another, built only from public
   calls so that every layer call can carry its own span. *)
let replica ~rounding rng (part : Shard.partition) =
  Spans.span "replica" (fun () ->
      let src = part.Shard.source in
      let nshards = Array.length part.Shard.shards in
      let n = Instance.n src and k = Instance.k src in
      let streams = Rng.split_n rng nshards in
      let assign = Array.make_matrix n k (-1) in
      let eval inst cfg =
        Spans.span "config.eval" (fun () -> Config.total_utility inst cfg)
      in
      let greedy inst =
        let cfg = Spans.span "algorithms.round" (fun () -> Algorithms.top_k_greedy inst) in
        (cfg, eval inst cfg)
      in
      let solve_shard i inst =
        if Instance.num_pairs inst = 0 then fst (greedy inst)
        else
          let relax =
            Spans.span "relaxation.solve" ~counts:relax_counts (fun () ->
                Relaxation.solve ~backend:(serial_backend inst) inst)
          in
          if not (Svgic_util.Supervise.finite_mat relax.Relaxation.xbar) then
            failwith "non-finite relaxation iterate";
          let cfg =
            Spans.span "algorithms.round" (fun () ->
                match rounding with
                | Shard.Avg { repeats; advanced_sampling } ->
                    Algorithms.avg_best_of ~advanced_sampling ~domains:1 ~repeats
                      streams.(i) inst relax
                | Shard.Avg_d { r } -> Algorithms.avg_d ?r ~domains:1 inst relax)
          in
          let util = eval inst cfg in
          if relax.Relaxation.degraded then
            let gcfg, gutil = greedy inst in
            if gutil > util then gcfg else cfg
          else cfg
      in
      Array.iteri
        (fun i (sh : Shard.shard) ->
          let inst = sh.Shard.inst in
          let cfg = try solve_shard i inst with Failure _ -> fst (greedy inst) in
          Array.iteri
            (fun lu g ->
              for s = 0 to k - 1 do
                assign.(g).(s) <- Config.item cfg ~user:lu ~slot:s
              done)
            sh.Shard.users;
          Instance.drop_view_caches inst)
        part.Shard.shards;
      let stitched = Config.make_unchecked assign in
      let before = eval src stitched in
      let seen = Array.make n false in
      Array.iter
        (fun (u, v) ->
          seen.(u) <- true;
          seen.(v) <- true)
        part.Shard.cut_pairs;
      let endpoints =
        Array.of_list (List.filter (fun u -> seen.(u)) (List.init n Fun.id))
      in
      let config =
        if Array.length endpoints = 0 then stitched
        else
          Spans.span "polish.repair"
            ~counts:(fun _ -> [ ("endpoints", float (Array.length endpoints)) ])
            (fun () -> Polish.improve_users ~max_passes:2 src stitched endpoints)
      in
      let objective = eval src config in
      (objective, objective -. before, Array.length endpoints))

(* ---------------- untraced run ------------------------------------ *)

let publish ~work (part : Shard.partition) (res : Shard.result) =
  let dir = Filename.concat work "plan" in
  Svgic.Checkpoint.ensure_dir dir;
  let inst_path = Filename.concat dir "instance.svgic" in
  let cfg_path = Filename.concat dir "config.txt" in
  Serialize.save_instance inst_path part.Shard.source;
  Serialize.write_file cfg_path
    (Serialize.config_to_string res.Shard.config part.Shard.source);
  (dir, inst_path, cfg_path)

(* Recovering a published plan: read the instance and configuration
   back, validate both and re-evaluate the objective. *)
let reload inst_path cfg_path =
  match Serialize.load_instance inst_path with
  | Error e -> Error e
  | Ok inst -> (
      match Serialize.config_of_string inst (Serialize.read_file cfg_path) with
      | Error e -> Error e
      | Ok cfg -> (
          match Config.validate inst (Config.assignment cfg) with
          | Error e -> Error e
          | Ok () -> Ok (Config.total_utility inst cfg)))

(* Each round generates the instance [setups_per_round] times (the
   set-up samples), plans the last one, and reads the published plan
   back [reloads_per_plan] times, so set-up, plan and recovery samples
   are spread over the whole run rather than taken back to back. Every
   timed unit starts from a collected heap. The first round's plan is
   the one checked and published; later rounds keep only what the
   gates and metrics read, so their instances and partitions are
   garbage before the next round starts. *)
let measure ~work shape seed seconds =
  let inst_seed, plan_seed = seeds_of seed in
  let setup_s = ref [] and rounds = ref [] and reload_s = ref [] in
  let reload_errors = ref [] in
  let first = ref None in
  let t0 = Svgic_util.Mclock.now_s () in
  while
    List.length !rounds < min_plans
    || Svgic_util.Mclock.now_s () -. t0 < float seconds
  do
    let set_up () =
      Gc.compact ();
      let g, dt = Timer.time (fun () -> generate shape inst_seed) in
      setup_s := dt :: !setup_s;
      g
    in
    for _ = 2 to setups_per_round do
      ignore (set_up () : Instance.t * Shard.labelling)
    done;
    let inst, labelling = set_up () in
    Gc.compact ();
    let (part, res), dt =
      Timer.time (fun () ->
          let part = Shard.partition ~labelling inst in
          (part, Shard.solve_round ~rounding:shape.rounding (Rng.create plan_seed) part))
    in
    Printf.printf "round %d: set-up %.4f s, plan %.4f s\n" (List.length !rounds + 1)
      (List.hd !setup_s) dt;
    let degraded = Array.fold_left (fun a d -> if d then a + 1 else a) 0 res.Shard.degraded in
    rounds := (res.Shard.objective, degraded, dt) :: !rounds;
    if Option.is_none !first then first := Some (part, res, publish ~work part res);
    let _, published, (_, inst_path, cfg_path) = Option.get !first in
    for _ = 1 to reloads_per_plan do
      Gc.compact ();
      let r, dt = Timer.time (fun () -> reload inst_path cfg_path) in
      reload_s := dt :: !reload_s;
      match r with
      | Ok obj when Report.same_float obj published.Shard.objective -> ()
      | Ok obj -> reload_errors := Printf.sprintf "objective %.17g" obj :: !reload_errors
      | Error e -> reload_errors := e :: !reload_errors
    done
  done;
  let rounds = Array.of_list (List.rev !rounds) in
  let part, res, (dir, _, _) = Option.get !first in
  check_plan part res;
  Report.gate "plans repeat bit for bit"
    (Array.for_all (fun (obj, _, _) -> Report.same_float obj res.Shard.objective) rounds)
    (Printf.sprintf "%d plans, objective %.17g" (Array.length rounds) res.Shard.objective);
  Report.gate "reloaded plan" (!reload_errors = [])
    (match !reload_errors with
    | [] ->
        Printf.sprintf "%d reloads of the published instance and configuration"
          (List.length !reload_s)
    | e :: _ -> e);
  Serve_wl.rm_rf dir;
  let walls = Array.map (fun (_, _, dt) -> dt) rounds in
  let degraded = Array.fold_left (fun acc (_, d, _) -> acc + d) 0 rounds in
  let attempted = Array.length res.Shard.degraded * Array.length rounds in
  let m = Report.metric in
  m "setup_s" "s" (Stats.median (Array.of_list !setup_s));
  m "solve_s" "s" (Stats.median walls);
  m "event_p50_ms" "ms" (1e3 *. Stats.quantile walls 0.5);
  m "event_p90_ms" "ms" (1e3 *. Stats.quantile walls 0.9);
  m "tick_p50_ms" "ms" (1e3 *. Stats.quantile walls 0.5);
  m "tick_p90_ms" "ms" (1e3 *. Stats.quantile walls 0.9);
  m "recover_s" "s" (Stats.median (Array.of_list !reload_s));
  m "objective" "utility" res.Shard.objective;
  m "gap_pct" "%" (100.0 *. (res.Shard.objective -. res.Shard.bound) /. res.Shard.objective);
  m "clean_solve_pct" "%" (100.0 *. float (attempted - degraded) /. float attempted);
  m "peak_rss_mb" "MB" (Report.peak_rss_mb ());
  (attempted, degraded)

(* ---------------- traced run -------------------------------------- *)

let measure_traced shape seed =
  let inst_seed, plan_seed = seeds_of seed in
  Spans.on := true;
  let (inst, labelling), gen_s =
    Timer.time (fun () -> Spans.span "generate.instance" (fun () -> generate shape inst_seed))
  in
  let labelling =
    match labelling with
    | Shard.Modularity ->
        Shard.Labels
          (Spans.span "community.detect" (fun () ->
               Community.greedy_modularity (Instance.graph inst)))
    | l -> l
  in
  let part = Serve_wl.traced_partition ~labelling inst in
  Spans.on := false;
  let res, round_s =
    Timer.time (fun () -> Shard.solve_round ~rounding:shape.rounding (Rng.create plan_seed) part)
  in
  check_plan part res;
  (* untraced, traced, untraced: the traced pass is compared with the
     mean of the two around it, so a drift in machine speed over the
     three passes cancels to first order *)
  let run_replica () =
    Gc.compact ();
    Timer.time (fun () -> replica ~rounding:shape.rounding (Rng.create plan_seed) part)
  in
  let (obj_off, _, _), off1 = run_replica () in
  Spans.on := true;
  Spans.set_run 1;
  let (obj_on, gain, endpoints), wall_on = run_replica () in
  Spans.on := false;
  let (obj_off2, _, _), off2 = run_replica () in
  let wall_off = 0.5 *. (off1 +. off2) in
  Report.gate "replica matches solve_round"
    (List.for_all (Report.same_float res.Shard.objective) [ obj_on; obj_off; obj_off2 ])
    (Printf.sprintf "%.17g (traced) %.17g (untraced) vs %.17g" obj_on obj_off
       res.Shard.objective);
  let self = Spans.self_by_name () in
  let root = Report.sum (Spans.durations "replica") in
  let glue = Spans.self_of self "replica" in
  let coverage = 100.0 *. (root -. glue) /. root in
  Report.gate "trace coverage" (coverage >= 95.0)
    (Printf.sprintf "layer self times cover %.2f%% of the replica (>= 95%%)" coverage);
  let shard_ms = Array.map (fun d -> 1e3 *. d) (Spans.durations "relaxation.solve") in
  let exact = Spans.sum_count "relaxation.solve" "exact" in
  let fw = Spans.sum_count "relaxation.solve" "fw" in
  let domains = Pool.available_domains () in
  let m name unit_ v = (name, unit_, v) in
  let layer =
    [
      m "generate.instance_s" "s" gen_s;
      m "shard.partition_s" "s" (Spans.self_of self "shard.partition");
      m "shard.count" "count" (Spans.sum_count "shard.partition" "shards");
      m "shard.cut_pairs" "count" (Spans.sum_count "shard.partition" "cut_pairs");
      m "community.detect_s" "s" (Spans.self_of self "community.detect");
      m "relaxation.solve_s" "s" (Spans.self_of self "relaxation.solve");
      m "relaxation.shard_p50_ms" "ms"
        (if Array.length shard_ms = 0 then 0.0 else Stats.median shard_ms);
      m "relaxation.exact_shards" "count" exact;
      m "relaxation.fw_shards" "count" fw;
      m "relaxation.pivots" "count" (Spans.sum_count "relaxation.solve" "pivots");
      m "relaxation.refactorizations" "count"
        (Spans.sum_count "relaxation.solve" "refactorizations");
      m "relaxation.fw_gap_mean" "scaled"
        (if fw > 0.0 then Spans.sum_count "relaxation.solve" "fw_gap" /. fw else 0.0);
      m "algorithms.round_s" "s" (Spans.self_of self "algorithms.round");
      m "polish.repair_s" "s" (Spans.self_of self "polish.repair");
      m "polish.endpoints" "count" (float endpoints);
      m "polish.repair_gain" "utility" gain;
      m "config.eval_s" "s" (Spans.self_of self "config.eval");
      m "pool.domains" "count" (float domains);
      m "pool.efficiency" "ratio" (wall_off /. (float domains *. round_s));
      m "trace.coverage_pct" "%" coverage;
      m "trace.overhead_pct" "%" (100.0 *. (wall_on -. wall_off) /. wall_off);
    ]
  in
  let nshards = Array.length res.Shard.degraded in
  let degraded = Array.fold_left (fun a d -> if d then a + 1 else a) 0 res.Shard.degraded in
  (layer, nshards, degraded)
