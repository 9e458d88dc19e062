(* Tests for the Section 5 extensions: commodity values, slot
   significance, group-wise social utility, subgroup-change smoothing,
   multi-view display, and SEO. The dynamic scenario runs on [Serve]
   and is tested in [Test_serve]. *)

module Rng = Svgic_util.Rng
module Instance = Svgic.Instance
module Config = Svgic.Config
module Extensions = Svgic.Extensions
module Mvd = Svgic.Mvd
module Seo = Svgic.Seo
module Example = Svgic.Example_paper

(* ---------------------- commodity values -------------------------- *)

let test_commodity_uniform_scaling () =
  let inst = Example.instance () in
  let doubled = Extensions.with_commodity_values inst (Array.make 5 2.0) in
  let cfg_data = Config.assignment (Example.optimal_config inst) in
  Alcotest.(check (float 1e-9)) "uniform ω doubles utility"
    (2.0 *. Config.total_utility inst (Config.make inst cfg_data))
    (Config.total_utility doubled (Config.make doubled cfg_data))

let test_commodity_changes_choice () =
  (* Making one item immensely valuable must drag the optimizer to it. *)
  let inst = Example.instance () in
  let omega = [| 1.0; 1.0; 50.0; 1.0; 1.0 |] in
  (* ω boosts the PSD (c3). *)
  let weighted = Extensions.with_commodity_values inst omega in
  let relax = Svgic.Relaxation.solve ~backend:Svgic.Relaxation.Exact_simplex weighted in
  let cfg = Svgic.Algorithms.avg_d weighted relax in
  let psd_shown = ref 0 in
  for u = 0 to 3 do
    if Config.sees cfg weighted ~user:u ~item:Example.psd then incr psd_shown
  done;
  Alcotest.(check int) "PSD shown to everyone" 4 !psd_shown

let test_commodity_validation () =
  let inst = Example.instance () in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Extensions.with_commodity_values: wrong length") (fun () ->
      ignore (Extensions.with_commodity_values inst [| 1.0 |]))

(* --------------------- slot significance -------------------------- *)

let test_slot_significance_uniform () =
  let inst = Example.instance () in
  let cfg = Example.optimal_config inst in
  Alcotest.(check (float 1e-9)) "uniform γ = plain objective"
    (Config.total_utility inst cfg)
    (Extensions.weighted_total_utility inst ~gamma:[| 1.0; 1.0; 1.0 |] cfg)

let test_slot_order_optimization () =
  let inst = Example.instance () in
  let cfg = Example.optimal_config inst in
  let gamma = [| 9.0; 1.0; 3.0 |] in
  let improved = Extensions.optimize_slot_order inst ~gamma cfg in
  let before = Extensions.weighted_total_utility inst ~gamma cfg in
  let after = Extensions.weighted_total_utility inst ~gamma improved in
  Alcotest.(check bool) "no worse" true (after >= before -. 1e-9);
  (* Optimality over permutations: by the rearrangement inequality the
     best pairing is sorted-by-sorted; verify against brute force. *)
  let utilities = Array.init 3 (fun s -> Config.slot_utility inst cfg s) in
  let perms = [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] ] in
  let best =
    List.fold_left
      (fun acc perm ->
        let v = ref 0.0 in
        Array.iteri (fun s target -> v := !v +. (gamma.(target) *. utilities.(s))) perm;
        Float.max acc !v)
      neg_infinity perms
  in
  Alcotest.(check (float 1e-9)) "optimal permutation" best after;
  (* The permutation must not change the unweighted objective. *)
  Alcotest.(check (float 1e-9)) "plain objective preserved"
    (Config.total_utility inst cfg)
    (Config.total_utility inst improved)

(* ------------------- group-wise social utility -------------------- *)

let test_groupwise_gamma_one_is_pairwise () =
  let inst = Example.instance () in
  let cfg = Example.optimal_config inst in
  let tau_group = Extensions.diminishing_tau_group inst ~gamma:1.0 in
  Alcotest.(check (float 1e-9)) "γ=1 degenerates to pairwise"
    (Config.total_utility inst cfg)
    (Extensions.groupwise_total_utility inst ~tau_group cfg)

let test_groupwise_diminishing_below_pairwise () =
  let inst = Example.instance () in
  let cfg = Example.optimal_config inst in
  let tau_group = Extensions.diminishing_tau_group inst ~gamma:0.5 in
  let diminished = Extensions.groupwise_total_utility inst ~tau_group cfg in
  let pairwise = Config.total_utility inst cfg in
  (* Sums here are < 1 per (user, slot), so the square root *raises*
     each positive term; with sums > 1 it would shrink them. Either
     way the value must differ from pairwise and stay finite. *)
  Alcotest.(check bool) "differs from pairwise" true
    (Float.abs (diminished -. pairwise) > 1e-6);
  Alcotest.(check bool) "finite" true (Float.is_finite diminished)

(* --------------------- subgroup-change smoothing ------------------ *)

let test_edit_distance_group_zero () =
  let inst = Example.instance () in
  let cfg = Svgic.Baselines.group ~fairness:0.0 inst in
  Alcotest.(check int) "static subgroups never change" 0
    (Extensions.edit_distance inst cfg)

let test_smoothing_no_worse () =
  let rng = Rng.create 500 in
  for _ = 1 to 5 do
    let inst = Helpers.random_instance rng ~n:6 ~m:8 ~k:4 in
    let relax = Svgic.Relaxation.solve ~backend:Svgic.Relaxation.Exact_simplex inst in
    let cfg = Svgic.Algorithms.avg rng inst relax in
    let smoothed = Extensions.smooth_subgroup_changes inst cfg in
    Alcotest.(check bool) "edit distance reduced or equal" true
      (Extensions.edit_distance inst smoothed <= Extensions.edit_distance inst cfg);
    Alcotest.(check (float 1e-9)) "utility preserved"
      (Config.total_utility inst cfg)
      (Config.total_utility inst smoothed)
  done

(* ----------------------- multi-view display ----------------------- *)

let test_mvd_of_config_identity () =
  let inst = Example.instance () in
  let cfg = Example.optimal_config inst in
  let mvd = Mvd.of_config cfg in
  Alcotest.(check (float 1e-9)) "same objective"
    (Config.total_utility inst cfg)
    (Mvd.total_utility inst mvd);
  Alcotest.(check int) "primary view preserved"
    (Config.item cfg ~user:0 ~slot:0)
    (Mvd.primary mvd ~user:0 ~slot:0)

let test_mvd_enrich_improves () =
  let inst = Example.instance () in
  let cfg = Svgic.Baselines.personalized inst in
  let base = Mvd.total_utility inst (Mvd.of_config cfg) in
  let enriched = Mvd.greedy_enrich inst ~beta:3 cfg in
  let value = Mvd.total_utility inst enriched in
  Alcotest.(check bool)
    (Printf.sprintf "enriched %.3f >= base %.3f" value base)
    true (value >= base);
  (* β = 1 is a no-op. *)
  let identity = Mvd.greedy_enrich inst ~beta:1 cfg in
  Alcotest.(check (float 1e-9)) "beta=1 identity" base (Mvd.total_utility inst identity)

let test_mvd_view_cap () =
  let inst = Example.instance () in
  let cfg = Svgic.Baselines.personalized inst in
  let enriched = Mvd.greedy_enrich inst ~beta:2 cfg in
  for u = 0 to 3 do
    for s = 0 to 2 do
      Alcotest.(check bool) "at most beta views" true
        (List.length (Mvd.views enriched ~user:u ~slot:s) <= 2)
    done
  done

(* ------------------------------ SEO -------------------------------- *)

(* Pivots of the exact relaxation solve behind a result; fails when the
   solve left no basis or no counters to warm start from. *)
let warm_pivots (relax : Svgic.Relaxation.t) =
  Alcotest.(check bool) "relaxation returns a basis" true (relax.basis <> None);
  match relax.lp_stats with
  | Some s -> s.Svgic.Relaxation.pivots
  | None -> Alcotest.fail "relaxation returns no lp_stats"

(* Ten attendees, eight events, two rounds: a 224-variable LP_SIMP. *)
let seo_fixture () =
  let rng = Rng.create 503 in
  let g = Svgic_graph.Generate.erdos_renyi rng ~n:10 ~p:0.4 in
  let events = Array.init 8 (fun i -> Seo.{ name = Printf.sprintf "event-%d" i }) in
  let pref = Array.init 10 (fun _ -> Array.init 8 (fun _ -> Rng.float rng 1.0)) in
  let plan =
    Seo.organize rng ~graph:g ~events ~rounds:2 ~capacity:4 ~pref
      ~tau:(fun _ _ _ -> 0.2) ~lambda:0.5
  in
  (rng, plan)

let test_seo_plan_feasible () =
  let _, plan = seo_fixture () in
  Alcotest.(check bool) "capacity respected" true (Seo.max_event_load plan <= 4);
  (* Every user's schedule has distinct events. *)
  for u = 0 to 9 do
    let schedule = Seo.schedule_of plan ~user:u in
    Alcotest.(check int) "rounds" 2 (Array.length schedule);
    Alcotest.(check bool) "distinct events" true (schedule.(0) <> schedule.(1))
  done;
  Alcotest.(check bool) "welfare positive" true (Seo.total_welfare plan > 0.0)

let test_seo_replan_warm () =
  let rng, plan = seo_fixture () in
  Alcotest.(check bool) "plan pivoted" true (warm_pivots plan.Seo.relax > 0);
  let replanned = Seo.replan rng plan in
  Alcotest.(check int) "unchanged plan replans in 0 pivots" 0
    (warm_pivots replanned.Seo.relax)

let test_seo_capacity_guard () =
  let rng = Rng.create 504 in
  let g = Svgic_graph.Generate.erdos_renyi rng ~n:10 ~p:0.4 in
  let events = Array.init 2 (fun i -> Seo.{ name = string_of_int i }) in
  let pref = Array.make_matrix 10 2 0.5 in
  Alcotest.check_raises "not enough capacity"
    (Invalid_argument "Seo.organize: not enough event capacity for a feasible schedule")
    (fun () ->
      ignore
        (Seo.organize rng ~graph:g ~events ~rounds:2 ~capacity:2 ~pref
           ~tau:(fun _ _ _ -> 0.0) ~lambda:0.5))

let suite =
  [
    Alcotest.test_case "commodity uniform scaling" `Quick test_commodity_uniform_scaling;
    Alcotest.test_case "commodity drives choice" `Quick test_commodity_changes_choice;
    Alcotest.test_case "commodity validation" `Quick test_commodity_validation;
    Alcotest.test_case "slot significance uniform" `Quick test_slot_significance_uniform;
    Alcotest.test_case "slot order optimization" `Quick test_slot_order_optimization;
    Alcotest.test_case "group-wise γ=1" `Quick test_groupwise_gamma_one_is_pairwise;
    Alcotest.test_case "group-wise diminishing" `Quick test_groupwise_diminishing_below_pairwise;
    Alcotest.test_case "edit distance of group" `Quick test_edit_distance_group_zero;
    Alcotest.test_case "smoothing no worse" `Quick test_smoothing_no_worse;
    Alcotest.test_case "MVD identity" `Quick test_mvd_of_config_identity;
    Alcotest.test_case "MVD enrichment" `Quick test_mvd_enrich_improves;
    Alcotest.test_case "MVD view cap" `Quick test_mvd_view_cap;
    Alcotest.test_case "SEO feasible plan" `Quick test_seo_plan_feasible;
    Alcotest.test_case "SEO replan warm starts" `Quick test_seo_replan_warm;
    Alcotest.test_case "SEO capacity guard" `Quick test_seo_capacity_guard;
  ]
