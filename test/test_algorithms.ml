(* Tests for AVG, AVG-D and the rounding machinery: validity of the
   produced configurations, the approximation guarantees, the
   theoretical gap/counter-example instances, and the CSF state. *)

module Rng = Svgic_util.Rng
module Instance = Svgic.Instance
module Config = Svgic.Config
module Relaxation = Svgic.Relaxation
module Algorithms = Svgic.Algorithms
module Csf = Svgic.Csf
module Reductions = Svgic_data.Reductions

let solve inst = Relaxation.solve ~backend:Relaxation.Exact_simplex inst

(* ----------------------------- CSF -------------------------------- *)

let test_csf_state_machine () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let st = Csf.create inst relax in
  Alcotest.(check int) "all cells empty" 12 (Csf.remaining st);
  Alcotest.(check bool) "eligible initially" true
    (Csf.eligible st ~user:0 ~item:0 ~slot:0);
  Csf.assign_cell st ~user:0 ~item:0 ~slot:0;
  Alcotest.(check int) "one filled" 11 (Csf.remaining st);
  Alcotest.(check bool) "slot taken" false (Csf.eligible st ~user:0 ~item:1 ~slot:0);
  Alcotest.(check bool) "no duplication" false (Csf.eligible st ~user:0 ~item:0 ~slot:1);
  Alcotest.check_raises "double assign"
    (Invalid_argument "Csf.assign_cell: cell taken") (fun () ->
      Csf.assign_cell st ~user:0 ~item:1 ~slot:0);
  Csf.greedy_complete st;
  Alcotest.(check bool) "complete" true (Csf.complete st);
  ignore (Csf.to_config st)

let test_csf_apply_threshold () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let st = Csf.create inst relax in
  (* α = 0 admits every eligible user. *)
  let assigned = Csf.apply st ~item:0 ~slot:0 ~alpha:0.0 in
  Alcotest.(check int) "everyone admitted" 4 (List.length assigned);
  (* α above every factor admits nobody. *)
  let st2 = Csf.create inst relax in
  let assigned2 = Csf.apply st2 ~item:0 ~slot:0 ~alpha:2.0 in
  Alcotest.(check int) "nobody admitted" 0 (List.length assigned2)

let test_csf_size_cap_locks () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let st = Csf.create ~size_cap:2 inst relax in
  let assigned = Csf.apply st ~item:0 ~slot:0 ~alpha:0.0 in
  Alcotest.(check int) "cap respected" 2 (List.length assigned);
  Alcotest.(check bool) "pair locked" true (Csf.locked st ~item:0 ~slot:0);
  let again = Csf.apply st ~item:0 ~slot:0 ~alpha:0.0 in
  Alcotest.(check int) "locked pair admits nobody" 0 (List.length again)

let test_csf_max_eligible_factor () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let st = Csf.create inst relax in
  let top = Csf.max_eligible_factor st ~item:0 ~slot:0 in
  let manual = ref 0.0 in
  for u = 0 to 3 do
    manual := Float.max !manual (Csf.factors st).(u).(0)
  done;
  Alcotest.(check (float 1e-9)) "max factor" !manual top

(* ------------------------ AVG validity ----------------------------- *)

let test_avg_validity_random () =
  let rng = Rng.create 100 in
  for trial = 1 to 8 do
    let n = 3 + Rng.int rng 5 in
    let m = 4 + Rng.int rng 5 in
    let k = 1 + Rng.int rng (min 3 m) in
    let inst = Helpers.random_instance rng ~n ~m ~k in
    let relax = solve inst in
    let cfg = Algorithms.avg rng inst relax in
    match Config.validate inst (Config.assignment cfg) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "trial %d: invalid AVG config: %s" trial msg
  done

let test_avg_plain_sampler_validity () =
  let rng = Rng.create 101 in
  let inst = Helpers.random_instance rng ~n:5 ~m:6 ~k:2 in
  let relax = solve inst in
  let cfg = Algorithms.avg ~advanced_sampling:false rng inst relax in
  match Config.validate inst (Config.assignment cfg) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid config: %s" msg

(* --------------------- approximation ratios ----------------------- *)

(* AVG-D's guarantee is deterministic: objective >= OPT_LP / 4 with
   r = 1/4 (Theorem 5). *)
let test_avg_d_quarter_guarantee () =
  let rng = Rng.create 102 in
  for _ = 1 to 6 do
    let inst = Helpers.random_instance rng ~n:5 ~m:6 ~k:2 in
    let relax = solve inst in
    let cfg = Algorithms.avg_d inst relax in
    let value = Config.total_utility inst cfg in
    let bound = Relaxation.upper_bound inst relax in
    Alcotest.(check bool)
      (Printf.sprintf "AVG-D %.4f >= UB/4 %.4f" value (bound /. 4.0))
      true
      (value >= (bound /. 4.0) -. 1e-9)
  done

(* AVG's guarantee is in expectation; averaged over repetitions the
   mean should clear OPT_LP/4 with margin on benign instances. *)
let test_avg_expected_guarantee () =
  let rng = Rng.create 103 in
  let inst = Helpers.random_instance rng ~n:6 ~m:6 ~k:2 in
  let relax = solve inst in
  let repeats = 40 in
  let total = ref 0.0 in
  for _ = 1 to repeats do
    let cfg = Algorithms.avg rng inst relax in
    total := !total +. Config.total_utility inst cfg
  done;
  let mean = !total /. float_of_int repeats in
  let bound = Relaxation.upper_bound inst relax in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f >= UB/4 %.4f" mean (bound /. 4.0))
    true
    (mean >= bound /. 4.0)

let test_avg_beats_baselines_on_paper_example () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let rng = Rng.create 104 in
  let best = Algorithms.avg_best_of ~repeats:30 rng inst relax in
  let value = Helpers.paper_value inst best in
  (* The paper reports AVG at 9.75 on this example; with repetitions we
     should at least clear every baseline (max 8.7). *)
  Alcotest.(check bool)
    (Printf.sprintf "AVG best-of %.3f > 8.7" value)
    true (value > 8.7)

let test_avg_d_beats_baselines_on_paper_example () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let cfg = Algorithms.avg_d inst relax in
  let value = Helpers.paper_value inst cfg in
  Alcotest.(check bool)
    (Printf.sprintf "AVG-D %.3f > 8.7" value)
    true (value > 8.7)

(* ----------------- theoretical instances -------------------------- *)

let test_theorem1_group_gap () =
  (* On I_G the optimal personalized-style solution achieves n·k·(1-λ)
     while any single-bundle (group) configuration achieves k·(1-λ). *)
  let n = 5 and k = 2 and lambda = 0.5 in
  let inst = Reductions.theorem1_group_gap ~n ~k ~lambda in
  let per = Svgic.Baselines.personalized inst in
  Alcotest.(check (float 1e-9)) "personalized optimum"
    (float_of_int (n * k) *. (1.0 -. lambda))
    (Config.total_utility inst per);
  let grp = Svgic.Baselines.group ~fairness:0.0 inst in
  Alcotest.(check (float 1e-9)) "group value"
    (float_of_int k *. (1.0 -. lambda))
    (Config.total_utility inst grp);
  (* AVG should recover the n-times-better solution (no social term, so
     the LP is integral). *)
  let relax = solve inst in
  let rng = Rng.create 105 in
  let cfg = Algorithms.avg rng inst relax in
  Alcotest.(check (float 1e-6)) "AVG matches optimum"
    (float_of_int (n * k) *. (1.0 -. lambda))
    (Config.total_utility inst cfg)

let test_theorem1_personalized_gap () =
  let n = 4 and k = 2 and lambda = 0.5 in
  let inst = Reductions.theorem1_personalized_gap ~n ~k ~lambda ~eps:0.01 in
  let per = Svgic.Baselines.personalized inst in
  let per_value = Config.total_utility inst per in
  let grp = Svgic.Baselines.group ~fairness:0.0 inst in
  let grp_value = Config.total_utility inst grp in
  (* With a complete graph and τ = 1 the all-together bundle collects
     Θ(n²) social utility and dominates personalization. *)
  Alcotest.(check bool)
    (Printf.sprintf "group %.3f > personalized %.3f" grp_value per_value)
    true (grp_value > per_value);
  let relax = solve inst in
  let cfg = Algorithms.avg_d inst relax in
  Alcotest.(check bool) "AVG-D at least group-level" true
    (Config.total_utility inst cfg >= grp_value -. 1e-6)

let test_lemma3_independent_rounding_weak () =
  (* On the uniform instance, dependent rounding (AVG) gets the full
     co-display value while independent rounding collects only ~1/m of
     the social utility. *)
  let n = 6 and m = 8 and k = 2 in
  let inst = Reductions.lemma3_uniform ~n ~m ~k ~tau:1.0 in
  let relax = solve inst in
  let rng = Rng.create 106 in
  let avg_cfg = Algorithms.avg rng inst relax in
  let avg_value = Config.total_utility inst avg_cfg in
  let optimal = float_of_int (n * (n - 1) * k) in
  Alcotest.(check (float 1e-6)) "AVG hits the optimum" optimal avg_value;
  (* Independent rounding, averaged: expected value ≈ optimal / m. *)
  let trials = 30 in
  let total = ref 0.0 in
  for _ = 1 to trials do
    let matrix = Algorithms.independent_rounding rng inst relax in
    let cfg = Config.make_unchecked matrix in
    total := !total +. Config.total_utility inst cfg
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "independent %.3f << AVG %.3f" mean avg_value)
    true
    (mean < 0.5 *. avg_value)

let test_lemma3_duplication_violations () =
  (* Independent rounding regularly violates no-duplication. *)
  let inst = Reductions.lemma3_uniform ~n:4 ~m:3 ~k:3 ~tau:1.0 in
  let relax = solve inst in
  let rng = Rng.create 107 in
  let violations = ref 0 in
  for _ = 1 to 20 do
    let matrix = Algorithms.independent_rounding rng inst relax in
    match Config.validate inst matrix with
    | Ok () -> ()
    | Error _ -> incr violations
  done;
  Alcotest.(check bool) "usually invalid" true (!violations > 10)

(* ----------------------- ablation paths --------------------------- *)

let test_avg_without_transform_same_quality () =
  let rng = Rng.create 108 in
  let inst = Helpers.random_instance rng ~n:4 ~m:4 ~k:2 in
  let with_t = solve inst in
  let without_t = Relaxation.solve_without_transform inst in
  Alcotest.(check (float 1e-5)) "same LP optimum" with_t.scaled_objective
    without_t.scaled_objective;
  let cfg = Algorithms.avg rng inst without_t in
  match Config.validate inst (Config.assignment cfg) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid: %s" msg

let test_avg_d_r_extremes () =
  (* r = 0 is the myopic greedy: tends to form one huge subgroup; a
     large r prefers tiny subgroups. Both must stay valid. *)
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  List.iter
    (fun r ->
      let cfg = Algorithms.avg_d ~r inst relax in
      match Config.validate inst (Config.assignment cfg) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "r=%.2f invalid: %s" r msg)
    [ 0.0; 0.1; 0.25; 1.0; 2.5 ]

let test_determinism_of_avg_d () =
  let inst = Helpers.paper_instance () in
  let relax = solve inst in
  let a = Algorithms.avg_d inst relax in
  let b = Algorithms.avg_d inst relax in
  Alcotest.(check bool) "same assignment" true
    (Config.assignment a = Config.assignment b)

(* The champion-tracking avg_d must reproduce the seed implementation
   bit-for-bit: same assignments and same utility, with and without a
   size cap, for any worker count of the initial sweep. *)
let test_avg_d_fast_path_matches_reference () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n:6 ~m:7 ~k:2 in
      let relax = solve inst in
      List.iter
        (fun size_cap ->
          let reference =
            Svgic_oracles.Avg_d_reference.avg_d ?size_cap inst relax
          in
          List.iter
            (fun domains ->
              let fast = Algorithms.avg_d ?size_cap ~domains inst relax in
              let label =
                Printf.sprintf "seed %d cap %s domains %d" seed
                  (match size_cap with None -> "-" | Some c -> string_of_int c)
                  domains
              in
              Alcotest.(check bool)
                (label ^ ": identical assignments")
                true
                (Config.assignment fast = Config.assignment reference);
              Alcotest.(check (float 0.0))
                (label ^ ": identical utility")
                (Config.total_utility inst reference)
                (Config.total_utility inst fast))
            [ 1; 3 ])
        [ None; Some 2; Some 3 ])
    [ 201; 202; 203 ]

(* Pooled best-of-N must reduce deterministically: same root seed ⇒
   same winner for every worker count, including the serial path. *)
let test_avg_best_of_pool_deterministic () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n:6 ~m:6 ~k:2 in
      let relax = solve inst in
      let run domains =
        let root = Rng.create (seed * 31) in
        Algorithms.avg_best_of ~domains ~repeats:7 root inst relax
      in
      let serial = run 1 in
      List.iter
        (fun domains ->
          let pooled = run domains in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "seed %d domains %d: same utility" seed domains)
            (Config.total_utility inst serial)
            (Config.total_utility inst pooled);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d domains %d: same assignment" seed domains)
            true
            (Config.assignment pooled = Config.assignment serial))
        [ 2; 4 ])
    [ 301; 302 ]

let test_lambda_zero_matches_personalized_optimum () =
  (* λ = 0 reduces SVGIC to top-k personalization (Section 3.1). *)
  let rng = Rng.create 109 in
  let inst = Helpers.random_instance ~lambda:0.0 rng ~n:5 ~m:6 ~k:2 in
  let relax = solve inst in
  let cfg = Algorithms.avg_d inst relax in
  let per = Svgic.Baselines.personalized inst in
  Alcotest.(check (float 1e-6)) "AVG-D = PER optimum at λ=0"
    (Config.total_utility inst per)
    (Config.total_utility inst cfg)

let test_lambda_one_ignores_preferences () =
  (* λ = 1: only social utility counts; the scaled preferences are 0
     and the pipeline still produces valid configurations. *)
  let rng = Rng.create 110 in
  let inst = Helpers.random_instance ~lambda:1.0 rng ~n:5 ~m:6 ~k:2 in
  let relax = solve inst in
  let cfg = Algorithms.avg rng inst relax in
  (match Config.validate inst (Config.assignment cfg) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid: %s" msg);
  let pref_part, _ = Config.utility_split inst cfg in
  Alcotest.(check (float 1e-9)) "preference part weighted to 0" 0.0 pref_part

let test_corollary_k1_two_approx () =
  (* Corollary 4.3: for k = 1 AVG is a 2-approximation in expectation.
     Check the empirical mean clears UB/2 with a small safety margin. *)
  let rng = Rng.create 111 in
  let inst = Helpers.random_instance rng ~n:6 ~m:5 ~k:1 in
  let relax = solve inst in
  let repeats = 60 in
  let total = ref 0.0 in
  for _ = 1 to repeats do
    total := !total +. Config.total_utility inst (Algorithms.avg rng inst relax)
  done;
  let mean = !total /. float_of_int repeats in
  let bound = Relaxation.upper_bound inst relax in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f >= 0.45 * UB %.4f" mean bound)
    true
    (mean >= 0.45 *. bound)

let test_st_with_commodity_composition () =
  (* Extensions compose: a commodity-weighted instance solved under a
     subgroup size cap stays feasible and valid. *)
  let rng = Rng.create 112 in
  let inst = Helpers.random_instance rng ~n:6 ~m:9 ~k:2 in
  let omega = Array.init 9 (fun c -> 0.5 +. float_of_int (c mod 3)) in
  let priced = Svgic.Extensions.with_commodity_values inst omega in
  let relax = solve priced in
  let cfg = Svgic.St.avg rng priced relax ~m_cap:2 in
  Alcotest.(check bool) "feasible" true (Svgic.St.feasible priced ~m_cap:2 cfg);
  match Config.validate priced (Config.assignment cfg) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid: %s" msg

(* --------------------- qcheck properties -------------------------- *)

let qcheck_props =
  let open QCheck in
  let instance_gen =
    Gen.(
      let* seed = int_range 0 10_000 in
      let* n = int_range 3 7 in
      let* m = int_range 3 7 in
      let* k = int_range 1 3 in
      return (seed, n, m, min k m))
  in
  [
    Test.make ~name:"AVG always returns a valid configuration" ~count:25
      (make instance_gen) (fun (seed, n, m, k) ->
        let rng = Rng.create seed in
        let inst = Helpers.random_instance rng ~n ~m ~k in
        let relax = Relaxation.solve ~backend:Relaxation.Exact_simplex inst in
        let cfg = Algorithms.avg rng inst relax in
        Result.is_ok (Config.validate inst (Config.assignment cfg)));
    Test.make ~name:"AVG-D meets the 1/4 LP bound" ~count:15
      (make instance_gen) (fun (seed, n, m, k) ->
        let rng = Rng.create seed in
        let inst = Helpers.random_instance rng ~n ~m ~k in
        let relax = Relaxation.solve ~backend:Relaxation.Exact_simplex inst in
        let cfg = Algorithms.avg_d inst relax in
        Config.total_utility inst cfg
        >= (Relaxation.upper_bound inst relax /. 4.0) -. 1e-9);
    Test.make ~name:"relaxation factors form distributions" ~count:20
      (make instance_gen) (fun (seed, n, m, k) ->
        let rng = Rng.create seed in
        let inst = Helpers.random_instance rng ~n ~m ~k in
        let relax = Relaxation.solve ~backend:Relaxation.Exact_simplex inst in
        let ok = ref true in
        for u = 0 to n - 1 do
          let row_sum = ref 0.0 in
          for c = 0 to m - 1 do
            let f = Relaxation.factor inst relax u c in
            if f < -1e-7 || f > (1.0 /. float_of_int k) +. 1e-7 then ok := false;
            row_sum := !row_sum +. f
          done;
          if Float.abs (!row_sum -. 1.0) > 1e-5 then ok := false
        done;
        !ok);
  ]

let suite =
  [
    Alcotest.test_case "CSF state machine" `Quick test_csf_state_machine;
    Alcotest.test_case "CSF thresholds" `Quick test_csf_apply_threshold;
    Alcotest.test_case "CSF size cap" `Quick test_csf_size_cap_locks;
    Alcotest.test_case "CSF max factor" `Quick test_csf_max_eligible_factor;
    Alcotest.test_case "AVG validity" `Quick test_avg_validity_random;
    Alcotest.test_case "AVG plain sampler" `Quick test_avg_plain_sampler_validity;
    Alcotest.test_case "AVG-D 1/4 guarantee" `Quick test_avg_d_quarter_guarantee;
    Alcotest.test_case "AVG expected guarantee" `Quick test_avg_expected_guarantee;
    Alcotest.test_case "AVG beats baselines (example)" `Quick test_avg_beats_baselines_on_paper_example;
    Alcotest.test_case "AVG-D beats baselines (example)" `Quick test_avg_d_beats_baselines_on_paper_example;
    Alcotest.test_case "Theorem 1 group gap" `Quick test_theorem1_group_gap;
    Alcotest.test_case "Theorem 1 personalized gap" `Quick test_theorem1_personalized_gap;
    Alcotest.test_case "Lemma 3 independent rounding" `Quick test_lemma3_independent_rounding_weak;
    Alcotest.test_case "Lemma 3 duplication" `Quick test_lemma3_duplication_violations;
    Alcotest.test_case "no-ALP ablation" `Quick test_avg_without_transform_same_quality;
    Alcotest.test_case "AVG-D r extremes" `Quick test_avg_d_r_extremes;
    Alcotest.test_case "AVG-D deterministic" `Quick test_determinism_of_avg_d;
    Alcotest.test_case "AVG-D fast path = reference" `Quick
      test_avg_d_fast_path_matches_reference;
    Alcotest.test_case "AVG best-of pool deterministic" `Quick test_avg_best_of_pool_deterministic;
    Alcotest.test_case "λ=0 is personalization" `Quick test_lambda_zero_matches_personalized_optimum;
    Alcotest.test_case "λ=1 ignores preferences" `Quick test_lambda_one_ignores_preferences;
    Alcotest.test_case "Corollary 4.3 (k=1)" `Quick test_corollary_k1_two_approx;
    Alcotest.test_case "ST + commodity compose" `Quick test_st_with_commodity_composition;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
