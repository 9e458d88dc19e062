(* Figure 9(a): time-budgeted exact MIP variants vs AVG-D.
   Figure 9(b): the speedup-strategy ablation (advanced LP
   transformation, advanced focal-parameter sampling).
   Figure 12: sensitivity of AVG-D to the balancing ratio r. *)

module C = Bench_common
module BB = Svgic_lp.Branch_bound
module Rng = Svgic_util.Rng
module Datasets = Svgic_data.Datasets
module Timer = Svgic_util.Timer
module Config = Svgic.Config
module Metrics = Svgic.Metrics

(* ------------------------------ 9(a) ------------------------------ *)

(* Our stand-ins for the commercial MIP algorithm variants: the same
   exact branch-and-bound explored in different orders. *)
let mip_variants =
  [
    ("IP-Primal", BB.Depth_first, BB.Most_fractional);
    ("IP-Dual", BB.Depth_first, BB.Max_objective);
    ("IP-C", BB.Hybrid, BB.Most_fractional);
    ("IP-DC", BB.Hybrid, BB.Max_objective);
    ("IP-Barrier", BB.Best_first, BB.Most_fractional);
  ]

let mip_variants_bench () =
  C.heading "fig9a"
    "Budgeted exact MIP variants, objective normalized by AVG-D";
  C.paper_note
    [
      "no MIP variant beats AVG-D even at 5000x its running time; the";
      "variants differ only marginally from each other.";
    ];
  (* The largest size our simplex B&B still handles; the high λ
     makes the relaxation fractional so the tree search has real work.
     NOTE (EXPERIMENTS.md): at laptop scale the exact solver is far
     stronger relative to AVG-D than Gurobi was at the paper's scale
     (their default instance has ~60M binaries), so budgeted IP
     eventually catches AVG-D here; the small-budget behaviour (no or
     poor incumbents) is the part of the paper's shape that survives
     the downscaling. *)
  let make rng = Datasets.make Datasets.Timik rng ~n:12 ~m:10 ~k:3 ~lambda:0.75 in
  let rng = Rng.create 900 in
  let inst = make rng in
  let avg_d_cfg, avg_d_time =
    Timer.time (fun () ->
        let relax = Svgic.Relaxation.solve inst in
        Svgic.Algorithms.avg_d inst relax)
  in
  let avg_d_value = Config.total_utility inst avg_d_cfg in
  Printf.printf "AVG-D: utility %.3f in %.3fs\n\n" avg_d_value avg_d_time;
  let budgets = [ 125.0; 625.0; 2500.0 ] in
  C.print_header "variant"
    (List.map (fun b -> Printf.sprintf "%.0fxT" b) budgets);
  let problem, binaries, maps = Svgic.Lp_build.ip inst in
  List.iter
    (fun (name, strategy, branch_rule) ->
      let cells =
        List.map
          (fun budget ->
            let options =
              {
                BB.default_options with
                strategy;
                branch_rule;
                time_budget_s =
                  Some (Float.min 30.0 (Float.max 0.05 (budget *. avg_d_time)));
              }
            in
            let result = BB.solve ~options problem ~binary:binaries in
            match result.incumbent with
            | None -> 0.0
            | Some x ->
                let n = Svgic.Instance.n inst
                and m = Svgic.Instance.m inst
                and k = Svgic.Instance.k inst in
                let assign = Array.make_matrix n k (-1) in
                for u = 0 to n - 1 do
                  for s = 0 to k - 1 do
                    for c = 0 to m - 1 do
                      if x.(maps.x_var u c s) > 0.5 then assign.(u).(s) <- c
                    done
                  done
                done;
                Config.total_utility inst (Config.make inst assign)
                /. avg_d_value)
          budgets
      in
      C.print_row name cells)
    mip_variants

(* ------------------------------ 9(b) ------------------------------ *)

let speedups_bench () =
  C.heading "fig9b" "Speedup-strategy ablation (execution time, seconds)";
  C.paper_note
    [
      "both strategies help; the advanced LP transformation dominates";
      "for AVG (the LP is its bottleneck), while the advanced sampling";
      "matters more on the focal-parameter side.";
    ];
  (* Sizes small enough that the untransformed slot-indexed LP stays
     cheap for the exact simplex. *)
  let make rng = Datasets.make Datasets.Timik rng ~n:8 ~m:8 ~k:3 ~lambda:0.5 in
  let variants : C.solver list =
    [
      C.avg_solver;
      {
        name = "AVG-ALP";
        run =
          (fun rng inst ->
            let relax = Svgic.Relaxation.solve_without_transform inst in
            Svgic.Algorithms.avg_best_of ~repeats:C.avg_repeats rng inst relax);
      };
      {
        name = "AVG-AS";
        run =
          (fun rng inst ->
            let relax = Svgic.Relaxation.solve inst in
            Svgic.Algorithms.avg_best_of ~advanced_sampling:false
              ~repeats:C.avg_repeats rng inst relax);
      };
      C.avg_d_solver;
      {
        name = "AVG-D-ALP";
        run =
          (fun _ inst ->
            let relax = Svgic.Relaxation.solve_without_transform inst in
            Svgic.Algorithms.avg_d inst relax);
      };
    ]
  in
  C.print_header "variant" [ "seconds"; "utility" ];
  List.iter
    (fun solver ->
      let r = C.measure ~samples:3 ~seed:901 make solver in
      C.print_row solver.name [ r.C.seconds; r.C.value ])
    variants;
  print_endline
    "(AVG-D evaluates focal candidates incrementally by construction,\n\
    \ so it has no separate -AS variant in this implementation.)"

(* ------------------------------ 12 -------------------------------- *)

let r_sensitivity () =
  C.heading "fig12" "AVG-D sensitivity to the balancing ratio r";
  C.paper_note
    [
      "r in [0.7, 1.0] is near-optimal; r = 0.25 still reaches ~86% of";
      "optimum (the guarantee); small r mimics the group approach";
      "(density ~1, intra ~1), large r mimics the personalized one";
      "(social -> 0, more iterations so more time).";
    ];
  let make rng = Datasets.make Datasets.Timik rng ~n:30 ~m:60 ~k:5 ~lambda:0.5 in
  let rng = Rng.create 902 in
  let inst = make rng in
  let relax = Svgic.Relaxation.solve inst in
  C.print_header "r" [ "utility"; "seconds"; "density"; "intra%"; "social" ];
  List.iter
    (fun r ->
      let cfg, dt = Timer.time (fun () -> Svgic.Algorithms.avg_d ~r inst relax) in
      let intra, _ = Metrics.intra_inter_pct inst cfg in
      let _, social = Metrics.utility_split inst cfg in
      C.print_row
        (Printf.sprintf "%.2f" r)
        [
          Config.total_utility inst cfg;
          dt;
          Metrics.normalized_density inst cfg;
          intra;
          social;
        ])
    [ 0.05; 0.1; 0.25; 0.5; 0.7; 1.0; 1.5; 2.0 ]

let run_all () =
  mip_variants_bench ();
  speedups_bench ();
  r_sensitivity ()
