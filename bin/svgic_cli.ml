(* Command-line front end: sample a synthetic dataset and run the
   SVGIC algorithms on it.

     svgic_cli solve   --dataset yelp --n 40 --k 6 --method avg-d
     svgic_cli compare --dataset timik --n 30 --cap 5
*)

open Cmdliner

module Rng = Svgic_util.Rng
module Datasets = Svgic_data.Datasets
module Metrics = Svgic.Metrics
module Config = Svgic.Config

let dataset_conv =
  let parse = function
    | "timik" -> Ok Datasets.Timik
    | "epinions" -> Ok Datasets.Epinions
    | "yelp" -> Ok Datasets.Yelp
    | other -> Error (`Msg (Printf.sprintf "unknown dataset %S" other))
  in
  let print ppf preset = Format.pp_print_string ppf (Datasets.name preset) in
  Arg.conv (parse, print)

let dataset_arg =
  Arg.(value & opt dataset_conv Datasets.Timik & info [ "dataset"; "d" ] ~doc:"timik | epinions | yelp")

let n_arg = Arg.(value & opt int 30 & info [ "n" ] ~doc:"number of shoppers")
let m_arg = Arg.(value & opt int 60 & info [ "m" ] ~doc:"number of items")
let k_arg = Arg.(value & opt int 5 & info [ "k" ] ~doc:"number of display slots")
let lambda_arg = Arg.(value & opt float 0.5 & info [ "lambda" ] ~doc:"social weight in [0,1]")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"random seed")

let cap_arg =
  Arg.(value & opt (some int) None & info [ "cap" ] ~doc:"SVGIC-ST subgroup size cap M")

(* [--cap M] below 1 is rejected here, so [Csf.create]'s
   [Invalid_argument] never reaches the user. *)
let check_cap = function
  | Some c when c < 1 ->
      Printf.eprintf "bad --cap value %d: the size cap must be at least 1\n" c;
      exit 1
  | Some _ | None -> ()

let method_arg =
  Arg.(
    value
    & opt string "avg"
    & info [ "method" ] ~doc:"avg | avg-d | per | fmg | sdp | grf | ip")

let shards_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shards" ]
        ~doc:
          "Run avg/avg-d through the community-sharded pipeline: 'components', \
           'modularity', or an integer (balanced parts)")

let load_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~doc:"load the instance from a file written by 'generate'")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ]
        ~doc:
          "Wall-clock budget for the solve, in seconds. On expiry the \
           degradation ladder returns the best feasible configuration reached \
           (down to the top-k greedy floor) instead of running to optimality.")

let on_fault_conv =
  let parse = function
    | "isolate" -> Ok Svgic.Shard.Isolate
    | "raise" -> Ok Svgic.Shard.Raise
    | other -> Error (`Msg (Printf.sprintf "unknown --on-fault value %S" other))
  in
  let print ppf = function
    | Svgic.Shard.Isolate -> Format.pp_print_string ppf "isolate"
    | Svgic.Shard.Raise -> Format.pp_print_string ppf "raise"
  in
  Arg.conv (parse, print)

let on_fault_arg =
  Arg.(
    value
    & opt on_fault_conv Svgic.Shard.Isolate
    & info [ "on-fault" ]
        ~doc:
          "isolate: a failing shard degrades to its greedy floor and is \
           reported; raise: shard failures abort the run (fail-fast)")

let out_arg =
  Arg.(value & opt string "instance.svgic" & info [ "out"; "o" ] ~doc:"output path")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ]
        ~doc:
          "Print solver internals: when the relaxation ran on the revised \
           simplex, its pivot count and basis-factorization counters \
           (refactorizations, factor fill, Forrest-Tomlin updates)")

let make_instance ?load preset seed ~n ~m ~k ~lambda =
  match load with
  | Some path -> (
      match Svgic.Serialize.instance_of_string (Svgic.Serialize.read_file path) with
      | Ok inst -> inst
      | Error msg ->
          Printf.eprintf "cannot load %s: %s\n" path msg;
          exit 1)
  | None ->
      let rng = Rng.create seed in
      Datasets.make preset rng ~n ~m ~k ~lambda

let parse_labelling = function
  | "components" -> Ok Svgic.Shard.Components
  | "modularity" -> Ok Svgic.Shard.Modularity
  | s -> (
      match int_of_string_opt s with
      | Some parts when parts >= 1 -> Ok (Svgic.Shard.Balanced parts)
      | Some _ | None -> Error (Printf.sprintf "bad --shards value %S" s))

(* [--shards N] is checked against the user count here, so the
   partitioner's [Invalid_argument] never reaches the user. *)
let labelling_for inst spec =
  match parse_labelling spec with
  | Ok (Svgic.Shard.Balanced parts) when parts > Svgic.Instance.n inst ->
      Error
        (Printf.sprintf "bad --shards value %S: more parts than the %d users"
           spec (Svgic.Instance.n inst))
  | r -> r

(* An upper bracket as printed: [inf] when some shard has no
   certificate. *)
let upper_string u = if u = infinity then "inf" else Printf.sprintf "%.4f" u

let run_sharded spec rounding ?cap ?token ~on_fault seed inst =
  match labelling_for inst spec with
  | Error _ as e -> e
  | Ok labelling ->
      let part =
        Svgic.Shard.partition ~rng:(Rng.create seed) ~labelling inst
      in
      let res =
        Svgic.Shard.solve_round ?size_cap:cap ?token ~on_fault ~rounding
          (Rng.create (seed + 1))
          part
      in
      Printf.printf
        "sharded pipeline   : %d shards, cut mass %.4f, certified >= %.4f \
         and <= %s, repair gain %.4f\n"
        (Array.length part.Svgic.Shard.shards)
        res.Svgic.Shard.cut_mass res.Svgic.Shard.bound
        (upper_string res.Svgic.Shard.upper_bound)
        res.Svgic.Shard.repair_gain;
      let degraded =
        res.Svgic.Shard.degraded |> Array.to_list
        |> List.mapi (fun i d -> (i, d))
        |> List.filter snd |> List.map fst
      in
      (match degraded with
      | [] -> ()
      | ids ->
          Printf.printf
            "degraded shards    : %d of %d [%s] (greedy-floor fallback; \
             certificate still holds)\n"
            (List.length ids)
            (Array.length res.Svgic.Shard.degraded)
            (String.concat "," (List.map string_of_int ids)));
      Ok res.Svgic.Shard.config

let warn_degraded relax =
  if relax.Svgic.Relaxation.degraded then
    Printf.printf
      "note               : degraded solve (deadline or numerical fallback); \
       result is feasible but not certified optimal\n"

(* --verbose: the relaxation's simplex counters, when the exact path
   produced the point (the Frank-Wolfe and greedy paths carry
   none). *)
let report_lp_stats verbose relax =
  if verbose then
    match relax.Svgic.Relaxation.lp_stats with
    | Some { Svgic.Relaxation.pivots; factor } ->
        Printf.printf
          "lp engine          : %d pivots, %d refactorizations, fill %d nnz, \
           %d Forrest-Tomlin updates storing %d nnz (%.3f s refactorizing)\n"
          pivots factor.Svgic_lp.Revised_simplex.refactorizations
          factor.Svgic_lp.Revised_simplex.fill_nnz
          factor.Svgic_lp.Revised_simplex.updates
          factor.Svgic_lp.Revised_simplex.update_nnz
          factor.Svgic_lp.Revised_simplex.factor_s
    | None ->
        Printf.printf
          "lp engine          : no revised-simplex counters on this path\n"

let run_method name ?cap ?shards ?token ?(on_fault = Svgic.Shard.Isolate)
    ?(verbose = false) seed inst =
  let rng = Rng.create (seed + 1) in
  match (name, shards) with
  | "avg", Some spec ->
      run_sharded spec
        (Svgic.Shard.Avg { repeats = 9; advanced_sampling = true })
        ?cap ?token ~on_fault seed inst
  | "avg-d", Some spec ->
      run_sharded spec (Svgic.Shard.Avg_d { r = None }) ?cap ?token ~on_fault
        seed inst
  | "avg", None ->
      let relax = Svgic.Relaxation.solve ?token inst in
      warn_degraded relax;
      report_lp_stats verbose relax;
      Ok (Svgic.Algorithms.avg_best_of ~repeats:9 ?size_cap:cap rng inst relax)
  | "avg-d", None ->
      let relax = Svgic.Relaxation.solve ?token inst in
      warn_degraded relax;
      report_lp_stats verbose relax;
      Ok (Svgic.Algorithms.avg_d ?size_cap:cap inst relax)
  | _, Some _ ->
      Error (Printf.sprintf "--shards only applies to avg/avg-d, not %S" name)
  | "per", None -> Ok (Svgic.Baselines.personalized inst)
  | "fmg", None -> Ok (Svgic.Baselines.group inst)
  | "sdp", None -> Ok (Svgic.Baselines.subgroup_by_friendship rng inst)
  | "grf", None -> Ok (Svgic.Baselines.subgroup_by_preference rng inst)
  | "ip", None -> (
      let options =
        {
          Svgic_lp.Branch_bound.default_options with
          time_budget_s = Some 60.0;
        }
      in
      match Svgic.Baselines.exact_ip ~options inst with
      | Some cfg, _ -> Ok cfg
      | None, _ -> Error "IP found no incumbent within the budget")
  | other, None -> Error (Printf.sprintf "unknown method %S" other)

let report inst cfg =
  let pref, social = Metrics.utility_split inst cfg in
  Printf.printf "total SAVG utility : %.4f\n" (pref +. social);
  Printf.printf "  preference part  : %.4f\n" pref;
  Printf.printf "  social part      : %.4f\n" social;
  Printf.printf "co-display rate    : %.1f%%\n" (100.0 *. Metrics.codisplay_rate inst cfg);
  Printf.printf "alone rate         : %.1f%%\n" (100.0 *. Metrics.alone_rate inst cfg);
  let intra, _ = Metrics.intra_inter_pct inst cfg in
  Printf.printf "intra-subgroup     : %.1f%%\n" (100.0 *. intra);
  Printf.printf "normalized density : %.3f\n" (Metrics.normalized_density inst cfg);
  Printf.printf "mean regret        : %.3f\n"
    (Svgic_util.Stats.mean (Metrics.regret_ratios inst cfg))

let generate_cmd =
  let run preset n m k lambda seed out =
    let inst = make_instance preset seed ~n ~m ~k ~lambda in
    Svgic.Serialize.write_file out (Svgic.Serialize.instance_to_string inst);
    Printf.printf "wrote %s-like instance (n=%d m=%d k=%d) to %s\n"
      (Datasets.name preset) n m k out
  in
  Cmd.v (Cmd.info "generate" ~doc:"Sample an instance and write it to a file")
    Term.(
      const run $ dataset_arg $ n_arg $ m_arg $ k_arg $ lambda_arg $ seed_arg
      $ out_arg)

let solve_cmd =
  let run preset n m k lambda seed method_name cap shards load deadline
      on_fault verbose =
    check_cap cap;
    let inst = make_instance ?load preset seed ~n ~m ~k ~lambda in
    Printf.printf "%s instance: n=%d m=%d k=%d lambda=%.2f\n\n"
      (match load with Some path -> path | None -> Datasets.name preset ^ "-like")
      (Svgic.Instance.n inst) (Svgic.Instance.m inst) (Svgic.Instance.k inst)
      (Svgic.Instance.lambda inst);
    let token =
      Option.map (fun s -> Svgic_util.Supervise.create ~deadline_s:s ()) deadline
    in
    match
      run_method method_name ?cap ?shards ?token ~on_fault ~verbose seed inst
    with
    | Error msg ->
        prerr_endline msg;
        exit 1
    | Ok cfg ->
        report inst cfg;
        (match cap with
        | Some m_cap ->
            let excess, oversized = Svgic.St.violations inst ~m_cap cfg in
            Printf.printf "size-cap violations: %d users in %d subgroups\n" excess
              oversized
        | None -> ());
        print_newline ();
        let slots_to_show = min 3 k in
        for s = 0 to slots_to_show - 1 do
          Printf.printf "slot %d subgroups:\n" (s + 1);
          Array.iter
            (fun members ->
              Printf.printf "  item %3d -> {%s}\n"
                (Config.item cfg ~user:members.(0) ~slot:s)
                (String.concat ","
                   (List.map string_of_int (Array.to_list members))))
            (Config.subgroups_at_slot cfg inst s)
        done
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve one instance with a chosen method")
    Term.(
      const run $ dataset_arg $ n_arg $ m_arg $ k_arg $ lambda_arg $ seed_arg
      $ method_arg $ cap_arg $ shards_arg $ load_arg $ deadline_arg
      $ on_fault_arg $ verbose_arg)

let compare_cmd =
  let run preset n m k lambda seed cap =
    check_cap cap;
    let inst = make_instance preset seed ~n ~m ~k ~lambda in
    Printf.printf "%s-like instance: n=%d m=%d k=%d lambda=%.2f (seed %d)\n\n"
      (Datasets.name preset) n m k lambda seed;
    Printf.printf "%-8s %10s %10s %10s %10s %8s\n" "method" "total" "pref" "social"
      "codisp%" "alone%";
    List.iter
      (fun name ->
        match run_method name ?cap seed inst with
        | Error msg -> Printf.printf "%-8s failed: %s\n" name msg
        | Ok cfg ->
            let pref, social = Metrics.utility_split inst cfg in
            Printf.printf "%-8s %10.3f %10.3f %10.3f %9.1f%% %7.1f%%\n" name
              (pref +. social) pref social
              (100.0 *. Metrics.codisplay_rate inst cfg)
              (100.0 *. Metrics.alone_rate inst cfg))
      [ "avg"; "avg-d"; "per"; "fmg"; "sdp"; "grf" ]
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare all methods on one instance")
    Term.(
      const run $ dataset_arg $ n_arg $ m_arg $ k_arg $ lambda_arg $ seed_arg
      $ cap_arg)

(* -------------------------------------------------------------------
   serve: replay a newline-delimited event trace through the online
   engine (Serve), one stats line per tick. *)

let events_arg =
  Arg.(
    value
    & opt string "-"
    & info [ "events"; "e" ]
        ~doc:
          "Event trace to replay ('-' reads stdin). Lines: 'tick', 'pref u c \
           v', 'tau u v c x', 'leave u', 'join p0,...,pm-1 \
           [friend:tau_out:tau_in ...]'; '#' comments and blank lines are \
           skipped. A trailing batch without a final 'tick' is flushed at \
           end of stream.")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ]
        ~doc:
          "Per-tick latency budget in milliseconds. A shard whose warm \
           re-solve overruns it degrades down the ladder (certified \
           Frank-Wolfe, then the greedy floor) instead of missing the tick.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~doc:
          "Solver fan-out cap for touched shards. Replay is bit-identical \
           for every value (per-tick Rng.split_n streams, reduce by index).")

let repair_arg =
  Arg.(
    value & opt int 2
    & info [ "repair-passes" ] ~doc:"per-tick cut-repair sweeps over touched cut endpoints")

let serve_labelling_arg =
  Arg.(
    value
    & opt string "components"
    & info [ "shards" ]
        ~doc:"partition labelling: 'components', 'modularity', or an integer (balanced parts)")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ]
        ~doc:
          "Durability directory: append every accepted event and tick \
           boundary to $(i,DIR)/wal.svgic and checkpoint the full solve \
           state there, so 'recover' can rebuild the exact state after a \
           crash.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ]
        ~doc:"ticks between checkpoints (with --wal; min 1)")

let fsync_conv =
  let parse = function
    | "every_event" -> Ok Svgic.Wal.Every_event
    | "every_tick" -> Ok Svgic.Wal.Every_tick
    | "off" -> Ok Svgic.Wal.Off
    | other -> Error (`Msg (Printf.sprintf "unknown --fsync value %S" other))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | Svgic.Wal.Every_event -> "every_event"
      | Svgic.Wal.Every_tick -> "every_tick"
      | Svgic.Wal.Off -> "off")
  in
  Arg.conv (parse, print)

let fsync_arg =
  Arg.(
    value
    & opt fsync_conv Svgic.Wal.Every_tick
    & info [ "fsync" ]
        ~doc:
          "WAL fsync policy (with --wal): 'every_event' survives any crash, \
           'every_tick' may lose events of the crashed tick but never a \
           committed tick, 'off' leaves durability to the OS page cache")

let retain_arg =
  Arg.(
    value & opt int 2
    & info [ "retain" ] ~doc:"checkpoints kept on disk (with --wal; min 1)")

let fingerprint_arg =
  Arg.(
    value & flag
    & info [ "fingerprint" ]
        ~doc:
          "Print the CRC-32 state fingerprint on exit — equal fingerprints \
           mean bit-identical solve state (the crash-recovery tests compare \
           a recovered engine against an uninterrupted run with this)")

let percentile sorted q =
  let len = Array.length sorted in
  if len = 0 then nan
  else sorted.(min (len - 1) (int_of_float (ceil (q *. float_of_int len)) - 1))

let print_tick_stats (s : Svgic.Serve.tick_stats) =
  Printf.printf
    "tick %4d: events %d applied %d dropped %d | shards %d warm %d degraded \
     %d%s | %.2f ms | obj %.4f bound %.4f upper %s\n"
    s.Svgic.Serve.tick s.events_seen s.events_applied s.events_dropped
    s.shards_touched s.warm_hits s.degraded
    (if s.structural then " structural" else "")
    (1e3 *. s.elapsed_s) s.objective s.bound (upper_string s.upper);
  flush stdout

(* Shared by serve and recover: stream a trace into the engine, one
   stats line per tick, then the run summary. [skip_events] and
   [skip_ticks] let recover fast-forward past the prefix the crashed
   run already consumed (counted by events_total / tick_count; the
   skip assumes the consumed prefix had no dropped events, which the
   live run reports on stderr). *)
let replay_trace t ~events ~skip_events ~skip_ticks =
  let ic = if events = "-" then stdin else open_in events in
  let ticks = ref [] in
  let do_tick () =
    let s = Svgic.Serve.tick t in
    ticks := s :: !ticks;
    print_tick_stats s
  in
  let ev_skip = ref skip_events and tk_skip = ref skip_ticks in
  (try
     let lineno = ref 0 in
     (try
        while true do
          let raw = input_line ic in
          incr lineno;
          match Svgic.Serve.parse_line raw with
          | Ok Svgic.Serve.Line_blank -> ()
          | Ok Svgic.Serve.Line_tick ->
              if !tk_skip > 0 then decr tk_skip else do_tick ()
          | Ok (Svgic.Serve.Line_event ev) ->
              if !ev_skip > 0 then decr ev_skip
              else ignore (Svgic.Serve.submit t ev : int option)
          | Error msg ->
              Printf.eprintf "%s:%d: %s\n" events !lineno msg;
              exit 1
        done
      with End_of_file -> ());
     if Svgic.Serve.pending_events t > 0 then do_tick ()
   with e ->
     if events <> "-" then close_in_noerr ic;
     raise e);
  if events <> "-" then close_in ic;
  let ticks = Array.of_list (List.rev !ticks) in
  let times = Array.map (fun s -> s.Svgic.Serve.elapsed_s) ticks in
  Array.sort compare times;
  let sum f = Array.fold_left (fun a s -> a + f s) 0 ticks in
  Printf.printf
    "\nsummary: %d ticks, %d events applied (%d dropped), %d shard \
     solves (%d warm, %d degraded)\n"
    (Array.length ticks)
    (sum (fun s -> s.Svgic.Serve.events_applied))
    (sum (fun s -> s.Svgic.Serve.events_dropped))
    (sum (fun s -> s.Svgic.Serve.shards_touched))
    (sum (fun s -> s.Svgic.Serve.warm_hits))
    (sum (fun s -> s.Svgic.Serve.degraded));
  if Array.length times > 0 then
    Printf.printf "tick latency: p50 %.2f ms, p99 %.2f ms\n"
      (1e3 *. percentile times 0.50)
      (1e3 *. percentile times 0.99);
  Printf.printf "final bracket: %.4f <= objective %.4f%s\n"
    (Svgic.Serve.bound t) (Svgic.Serve.objective t)
    (let u = Svgic.Serve.upper t in
     " <= " ^ upper_string u
     ^ if u = infinity then " (certificate degraded)" else "")

let print_fingerprint t =
  Printf.printf "fingerprint: %08x\n" (Svgic.Serve.fingerprint t)

let serve_cmd =
  let run preset n m k lambda seed load events shards deadline_ms domains
      repair_passes wal checkpoint_every fsync retain fingerprint =
    let inst = make_instance ?load preset seed ~n ~m ~k ~lambda in
    match labelling_for inst shards with
    | Error msg ->
        prerr_endline msg;
        exit 1
    | Ok labelling ->
        let deadline_s = Option.map (fun ms -> ms /. 1e3) deadline_ms in
        let t =
          Svgic.Serve.create ~labelling ?deadline_s ?domains ~repair_passes
            (Rng.create seed) inst
        in
        Printf.printf "serving %d users in %d shards (seed %d)\n%!"
          (Svgic.Serve.num_users t) (Svgic.Serve.num_shards t) seed;
        (match wal with
        | None -> ()
        | Some dir ->
            Svgic.Serve.enable_durability t
              { Svgic.Serve.dir; fsync; checkpoint_every; retain };
            Printf.printf
              "durable: %s (fsync %s, checkpoint every %d, retain %d)\n%!" dir
              (match fsync with
              | Svgic.Wal.Every_event -> "every_event"
              | Svgic.Wal.Every_tick -> "every_tick"
              | Svgic.Wal.Off -> "off")
              checkpoint_every retain);
        replay_trace t ~events ~skip_events:0 ~skip_ticks:0;
        Svgic.Serve.disable_durability t;
        if fingerprint then print_fingerprint t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Replay an event trace through the online serving engine")
    Term.(
      const run $ dataset_arg $ n_arg $ m_arg $ k_arg $ lambda_arg $ seed_arg
      $ load_arg $ events_arg $ serve_labelling_arg $ deadline_ms_arg
      $ domains_arg $ repair_arg $ wal_arg $ checkpoint_every_arg $ fsync_arg
      $ retain_arg $ fingerprint_arg)

(* -------------------------------------------------------------------
   recover: rebuild the engine from the newest valid checkpoint + WAL
   suffix, audit it, and optionally resume the original trace. *)

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~doc:"durability directory written by 'serve --wal'")

let resume_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events"; "e" ]
        ~doc:
          "Resume the original event trace ('-' reads stdin): the prefix the \
           crashed run already consumed — counted by the recovered engine's \
           accepted-event and tick totals — is skipped, and serving continues \
           from the first unconsumed line.")

let audit_repair_arg =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "If the post-recovery audit fails, demote the failing shards to a \
           fresh re-solve and re-check instead of exiting nonzero")

let recover_cmd =
  let run dir events deadline_ms domains repair_passes fsync checkpoint_every
      retain repair fingerprint =
    let deadline_s = Option.map (fun ms -> ms /. 1e3) deadline_ms in
    match
      Svgic.Serve.recover ?deadline_s ?domains ~repair_passes ~fsync
        ~checkpoint_every ~retain ~dir ()
    with
    | Error msg ->
        Printf.eprintf "recover: %s\n" msg;
        exit 1
    | Ok (t, (r : Svgic.Serve.recovery)) ->
        List.iter
          (fun (path, err) ->
            Printf.printf "skipped corrupt checkpoint %s: %s\n"
              (Filename.basename path) err)
          r.checkpoints_skipped;
        Printf.printf
          "recovered %d users from %s (seqno %Ld): replayed %d events, %d \
           ticks%s\n%!"
          (Svgic.Serve.num_users t)
          (Filename.basename r.checkpoint_path)
          r.checkpoint_seqno r.replayed_events r.replayed_ticks
          (if r.torn_bytes > 0 then
             Printf.sprintf " (truncated %d-byte torn WAL tail)" r.torn_bytes
           else "");
        let a : Svgic.Serve.audit_report = Svgic.Serve.audit ~repair t in
        Printf.printf
          "audit: %s (cut drift %.3g, objective drift %.3g, bracket %s)%s\n%!"
          (if a.audit_ok then "ok" else "FAILED")
          a.cut_drift a.objective_drift
          (if a.bracket_ok then "ok" else "VIOLATED")
          (match a.repaired with
          | [] -> ""
          | l ->
              Printf.sprintf " — repaired shards [%s]"
                (String.concat "," (List.map string_of_int l)));
        if not a.audit_ok then (
          Svgic.Serve.disable_durability t;
          exit 1);
        (match events with
        | None ->
            Printf.printf
              "state: tick %d, %d events consumed, %d pending | %.4f <= \
               objective %.4f <= %s\n"
              (Svgic.Serve.tick_count t)
              (Svgic.Serve.events_total t)
              (Svgic.Serve.pending_events t)
              (Svgic.Serve.bound t) (Svgic.Serve.objective t)
              (upper_string (Svgic.Serve.upper t))
        | Some path ->
            replay_trace t ~events:path
              ~skip_events:(Svgic.Serve.events_total t)
              ~skip_ticks:(Svgic.Serve.tick_count t));
        Svgic.Serve.disable_durability t;
        if fingerprint then print_fingerprint t
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a crashed serving engine from its WAL and checkpoints")
    Term.(
      const run $ dir_arg $ resume_events_arg $ deadline_ms_arg $ domains_arg
      $ repair_arg $ fsync_arg $ checkpoint_every_arg $ retain_arg
      $ audit_repair_arg $ fingerprint_arg)

(* -------------------------------------------------------------------
   fsck: offline health report for a durability directory. *)

let fsck_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"durability directory to check")

let fsck_records_arg =
  Arg.(
    value & flag
    & info [ "records" ] ~doc:"print one line per CRC-valid WAL record")

let fsck_cmd =
  let run dir records =
    if not (Sys.file_exists dir && Sys.is_directory dir) then (
      Printf.eprintf "fsck: no such directory %s\n" dir;
      exit 1);
    let newest_valid = ref None in
    List.iter
      (fun (path, tick, seqno) ->
        match Svgic.Checkpoint.load path with
        | Ok _ ->
            newest_valid := Some (path, seqno);
            Printf.printf "checkpoint %s: ok (tick %d, seqno %Ld)\n"
              (Filename.basename path) tick seqno
        | Error err ->
            Printf.printf "checkpoint %s: CORRUPT — %s\n"
              (Filename.basename path) err)
      (Svgic.Checkpoint.list_files dir);
    let wal_path = Filename.concat dir "wal.svgic" in
    let wal_last =
      if not (Sys.file_exists wal_path) then (
        print_endline "wal: missing";
        0L)
      else
        let on_record seqno r =
          if records then
            Printf.printf "  record %Ld: %s\n" seqno
              (match r with
              | Svgic.Wal.Tick n -> Printf.sprintf "tick %d" n
              | Svgic.Wal.Event (Svgic.Wal.Join j) ->
                  Printf.sprintf "join (%d friends)"
                    (Array.length j.Svgic.Wal.jfriends)
              | Svgic.Wal.Event (Svgic.Wal.Leave u) ->
                  Printf.sprintf "leave %d" u
              | Svgic.Wal.Event (Svgic.Wal.Pref { user; item; value }) ->
                  Printf.sprintf "pref %d %d %.17g" user item value
              | Svgic.Wal.Event (Svgic.Wal.Tau { u; v; item; value }) ->
                  Printf.sprintf "tau %d %d %d %.17g" u v item value)
        in
        match Svgic.Wal.scan ~f:on_record wal_path with
        | Error err ->
            Printf.printf "wal: UNREADABLE — %s\n" err;
            0L
        | Ok (s : Svgic.Wal.scan) ->
            Printf.printf
              "wal: %d records ok (%d events, %d ticks), seqnos %Ld..%Ld, %d \
               of %d bytes valid\n"
              s.records s.events s.ticks s.first_seqno s.last_seqno
              s.valid_end s.file_size;
            (match s.torn with
            | None -> ()
            | Some why ->
                Printf.printf "wal: torn tail at byte %d (%d bytes) — %s\n"
                  s.valid_end (s.file_size - s.valid_end) why);
            s.last_seqno
    in
    match !newest_valid with
    | None ->
        print_endline "unrecoverable: no valid checkpoint";
        exit 1
    | Some (path, seqno) ->
        Printf.printf "recoverable: %s at seqno %Ld, WAL replay to seqno %Ld\n"
          (Filename.basename path) seqno
          (Int64.max seqno wal_last)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Check a durability directory: checkpoints, WAL health, torn tail")
    Term.(const run $ fsck_dir_arg $ fsck_records_arg)

let () =
  (* Deterministic fault injection is opt-in via SVGIC_FAULT_SEED (see
     DESIGN.md §5) — inert unless the variable is set. *)
  ignore (Svgic_util.Fault.init_from_env () : bool);
  let info = Cmd.info "svgic_cli" ~doc:"Social-aware VR group-item configuration" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; solve_cmd; compare_cmd; serve_cmd; recover_cmd; fsck_cmd ]))
