(* Experiment harness entry point.

   Usage:
     dune exec bench/main.exe              # every experiment
     dune exec bench/main.exe -- fig5      # one experiment
     dune exec bench/main.exe -- list      # list experiment ids

   Each experiment regenerates one table or figure of the paper's
   evaluation (Section 6); see DESIGN.md for the experiment index and
   EXPERIMENTS.md for the measured-vs-paper discussion. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("table1", "running example (Tables 1, 6-9)", Bench_tables.run);
    ("fig3a", "utility vs n (small)", Bench_small.utility_vs_n);
    ("fig3b", "time vs n (small)", Bench_small.time_vs_n);
    ("fig3c", "utility vs m (small)", Bench_small.utility_vs_m);
    ("fig3d", "time vs m (small)", Bench_small.time_vs_m);
    ("fig3e", "utility vs k (small)", Bench_small.utility_vs_k);
    ("fig3f", "time vs k (small)", Bench_small.time_vs_k);
    ("fig4", "utility split vs lambda", Bench_small.utility_vs_lambda);
    ("fig5", "utility vs n (large Timik)", Bench_large.utility_vs_n);
    ("fig6", "utility per dataset", Bench_large.utility_by_dataset);
    ("fig7", "utility per input model", Bench_large.utility_by_model);
    ("fig8a", "time vs n (Yelp)", Bench_large.time_vs_n);
    ("fig8b", "time vs m (Yelp)", Bench_large.time_vs_m);
    ("fig9a", "budgeted MIP variants", Bench_ablation.mip_variants_bench);
    ("fig9b", "speedup ablation", Bench_ablation.speedups_bench);
    ("fig10a-c", "inter/intra% + density", Bench_subgroup.edges_density);
    ("fig10d-f", "co-display% + alone%", Bench_subgroup.codisplay_alone);
    ("fig10g-i", "regret CDF", Bench_subgroup.regret_cdf);
    ("fig11", "ego-network case study", Bench_subgroup.case_study);
    ("fig12", "AVG-D r sensitivity", Bench_ablation.r_sensitivity);
    ("fig13", "ST size-cap violations", Bench_st.violations);
    ( "fig14",
      "ST utility vs M (Timik)",
      fun () -> Bench_st.utility_vs_cap ~id:"fig14" Svgic_data.Datasets.Timik );
    ( "fig15",
      "ST utility vs M (Epinions)",
      fun () -> Bench_st.utility_vs_cap ~id:"fig15" Svgic_data.Datasets.Epinions );
    ("fig16", "user study", Bench_user_study.run);
    ("kernels", "bechamel kernel micro-benchmarks", Bench_kernels.run);
    ("xl", "million-user sharded pipeline + peak-RSS gate", Bench_xl.run);
    ("serve", "online serving: incremental vs cold per tick", Bench_serve.run);
    (* Full scale even under SVGIC_BENCH_SMOKE=1: the kernels smoke run
       already covers the 16-user row. *)
    ( "fw_mc",
      "Frank-Wolfe solve time, 25 to 6,000 users at m = 12",
      fun () ->
        let records =
          Bench_kernels.fw_mc_records ~users:Bench_kernels.fw_mc_full_users
        in
        Bench_kernels.print_records records;
        Bench_xl.merge_into_json ~path:"BENCH_kernels.json" records );
  ]

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (id, descr, _) -> Printf.printf "  %-10s %s\n" id descr) experiments

let () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ -> list_experiments ()
  | _ :: id :: _ -> (
      match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
      | Some (_, _, run) -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          list_experiments ();
          exit 1)
  | _ :: [] | [] ->
      (* The xl pipeline is excluded from the full sweep: its peak-RSS
         gate is only meaningful in a fresh process (VmHWM is monotone),
         so it must be invoked explicitly as `-- xl`. *)
      List.iter
        (fun (id, _, run) -> if id <> "xl" then run ())
        experiments
