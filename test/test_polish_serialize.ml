(* Tests for the local-search polish pass, the exact MVD integer
   program, and instance/configuration serialization. *)

module Rng = Svgic_util.Rng
module Instance = Svgic.Instance
module Config = Svgic.Config
module Polish = Svgic.Polish
module Mvd = Svgic.Mvd
module Serialize = Svgic.Serialize
module Example = Svgic.Example_paper

(* ---------------------------- polish ------------------------------ *)

let test_polish_never_decreases () =
  let rng = Rng.create 800 in
  for _ = 1 to 6 do
    let inst = Helpers.random_instance rng ~n:6 ~m:8 ~k:3 in
    let cfg = Svgic.Baselines.personalized inst in
    let polished = Polish.improve inst cfg in
    Alcotest.(check bool) "monotone" true
      (Config.total_utility inst polished
      >= Config.total_utility inst cfg -. 1e-9);
    match Config.validate inst (Config.assignment polished) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invalid polished config: %s" msg
  done

let test_polish_fixed_point_of_optimum () =
  (* The proven optimum of the running example is a local optimum: the
     polish pass must leave its value unchanged. *)
  let inst = Example.instance () in
  let optimal = Example.optimal_config inst in
  let polished = Polish.improve inst optimal in
  Alcotest.(check (float 1e-9)) "optimum unchanged"
    (Config.total_utility inst optimal)
    (Config.total_utility inst polished)

let test_polish_improves_bad_start () =
  (* Starting from a deliberately bad configuration (everyone's
     *least* preferred items), polishing must strictly improve. *)
  let inst = Example.instance () in
  let worst =
    Config.make inst
      (Array.init 4 (fun u ->
           let scores = Array.init 5 (fun c -> -.Instance.pref inst u c) in
           Svgic_util.Select.top_k 3 scores))
  in
  let polished = Polish.improve inst worst in
  Alcotest.(check bool) "strict improvement" true
    (Config.total_utility inst polished > Config.total_utility inst worst)

let test_polish_single_user () =
  let rng = Rng.create 801 in
  let inst = Helpers.random_instance rng ~n:5 ~m:7 ~k:2 in
  let cfg = Svgic.Baselines.group inst in
  let improved = Polish.improve_users ~max_passes:1 inst cfg [| 2 |] in
  (* Other rows untouched. *)
  for u = 0 to 4 do
    if u <> 2 then
      Alcotest.(check (array int)) "frozen row" (Config.row cfg u)
        (Config.row improved u)
  done;
  Alcotest.(check bool) "no decrease" true
    (Config.total_utility inst improved >= Config.total_utility inst cfg -. 1e-9)

let test_gap_estimate () =
  let inst = Example.instance () in
  let relax = Svgic.Relaxation.solve ~backend:Svgic.Relaxation.Exact_simplex inst in
  let gap = Polish.gap_estimate inst relax (Example.optimal_config inst) in
  Alcotest.(check bool) "gap in (0.9, 1]" true (gap > 0.9 && gap <= 1.0 +. 1e-9)

(* --------------------------- MVD exact ----------------------------- *)

let test_mvd_exact_dominates_greedy () =
  let rng = Rng.create 802 in
  let inst = Helpers.random_instance rng ~n:3 ~m:4 ~k:2 in
  match Mvd.exact_ip inst ~beta:2 with
  | None -> Alcotest.fail "MVD IP found no incumbent"
  | Some (exact, result) ->
      Alcotest.(check bool) "proved" true result.proved_optimal;
      let exact_value = Mvd.total_utility inst exact in
      (* Greedy enrichment of the plain optimum is a feasible MVD
         solution, so the exact optimum dominates it. *)
      let plain = Svgic.Baselines.exhaustive inst in
      let greedy = Mvd.greedy_enrich inst ~beta:2 plain in
      Alcotest.(check bool)
        (Printf.sprintf "exact %.4f >= greedy %.4f" exact_value
           (Mvd.total_utility inst greedy))
        true
        (exact_value >= Mvd.total_utility inst greedy -. 1e-6);
      (* And beta = 1 exact MVD equals the plain SVGIC optimum. *)
      (match Mvd.exact_ip inst ~beta:1 with
      | Some (single, _) ->
          Alcotest.(check (float 1e-5)) "beta=1 = plain optimum"
            (Config.total_utility inst plain)
            (Mvd.total_utility inst single)
      | None -> Alcotest.fail "beta=1 IP failed")

let test_mvd_exact_respects_beta () =
  let rng = Rng.create 803 in
  let inst = Helpers.random_instance rng ~n:3 ~m:4 ~k:2 in
  match Mvd.exact_ip inst ~beta:2 with
  | None -> Alcotest.fail "no incumbent"
  | Some (mvd, _) ->
      for u = 0 to 2 do
        for s = 0 to 1 do
          let views = Mvd.views mvd ~user:u ~slot:s in
          Alcotest.(check bool) "within beta" true (List.length views <= 2);
          Alcotest.(check bool) "has a primary" true (List.length views >= 1)
        done
      done

(* ------------------------- serialization -------------------------- *)

let test_instance_roundtrip () =
  let inst = Example.instance ~lambda:0.4 () in
  let text = Serialize.instance_to_string inst in
  match Serialize.instance_of_string text with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok restored ->
      Alcotest.(check int) "n" (Instance.n inst) (Instance.n restored);
      Alcotest.(check int) "m" (Instance.m inst) (Instance.m restored);
      Alcotest.(check int) "k" (Instance.k inst) (Instance.k restored);
      Alcotest.(check (float 1e-12)) "lambda" (Instance.lambda inst)
        (Instance.lambda restored);
      for u = 0 to 3 do
        for c = 0 to 4 do
          Alcotest.(check (float 1e-12)) "pref" (Instance.pref inst u c)
            (Instance.pref restored u c)
        done
      done;
      Array.iter
        (fun (u, v) ->
          for c = 0 to 4 do
            Alcotest.(check (float 1e-12)) "tau" (Instance.tau inst u v c)
              (Instance.tau restored u v c)
          done)
        (Svgic_graph.Graph.edges (Instance.graph inst));
      (* Objectives agree on a reference configuration. *)
      let cfg = Example.optimal_config inst in
      let restored_cfg = Config.make restored (Config.assignment cfg) in
      Alcotest.(check (float 1e-9)) "objective preserved"
        (Config.total_utility inst cfg)
        (Config.total_utility restored restored_cfg)

let test_config_roundtrip () =
  let inst = Example.instance () in
  let cfg = Example.optimal_config inst in
  let text = Serialize.config_to_string cfg inst in
  match Serialize.config_of_string inst text with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok restored ->
      Alcotest.(check bool) "same assignment" true
        (Config.assignment restored = Config.assignment cfg)

let test_serialize_rejects_garbage () =
  (match Serialize.instance_of_string "hello world" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  let inst = Example.instance () in
  match Serialize.config_of_string inst "svgic-config 1\n2 2\n0 1\n0 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dimension mismatch accepted"

let test_file_roundtrip () =
  let inst = Example.instance () in
  let path = Filename.temp_file "svgic" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.write_file path (Serialize.instance_to_string inst);
      match Serialize.instance_of_string (Serialize.read_file path) with
      | Ok restored -> Alcotest.(check int) "n" 4 (Instance.n restored)
      | Error msg -> Alcotest.failf "file roundtrip failed: %s" msg)

let suite =
  [
    Alcotest.test_case "polish monotone" `Quick test_polish_never_decreases;
    Alcotest.test_case "polish fixed point" `Quick test_polish_fixed_point_of_optimum;
    Alcotest.test_case "polish improves" `Quick test_polish_improves_bad_start;
    Alcotest.test_case "polish single user" `Quick test_polish_single_user;
    Alcotest.test_case "gap estimate" `Quick test_gap_estimate;
    Alcotest.test_case "MVD exact vs greedy" `Slow test_mvd_exact_dominates_greedy;
    Alcotest.test_case "MVD exact beta" `Quick test_mvd_exact_respects_beta;
    Alcotest.test_case "instance roundtrip" `Quick test_instance_roundtrip;
    Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "serialize rejects garbage" `Quick test_serialize_rejects_garbage;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
  ]
