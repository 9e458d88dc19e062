(* Tests for the sparse multicore Frank-Wolfe engine (Pairwise_fw):
   sparse-vs-dense gradient equivalence against the seed prototype
   (test/oracles/fw_reference.ml), objective agreement with the exact
   simplex across seeds, serial-vs-parallel bit-identity, golden solve
   digests, duality-gap stopping, and the Relaxation-level gap
   report. *)

module Problem = Svgic_lp.Problem
module Simplex = Svgic_oracles.Simplex
module Reference = Svgic_oracles.Fw_reference
module Fw = Svgic_lp.Pairwise_fw
module Rng = Svgic_util.Rng

let fw_random_problem rng ~n ~m ~k ~edges ~density =
  let linear =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let pairs =
    Array.init edges (fun _ ->
        let u = Rng.int rng n in
        let v = (u + 1 + Rng.int rng (n - 1)) mod n in
        let w =
          Array.init m (fun _ ->
              if Rng.bernoulli rng density then Rng.float rng 0.6 else 0.0)
        in
        (min u v, max u v, w))
  in
  Fw.{ n; m; k; linear; pairs }

(* Exact value of the same program via the dense simplex (y-variables
   explicit). *)
let exact_pairwise_optimum (fw : Fw.problem) =
  let p = Problem.create () in
  let x =
    Array.init fw.n (fun u ->
        Array.init fw.m (fun c ->
            Problem.add_var p ~upper:1.0 ~obj:fw.linear.(u).(c) ()))
  in
  Array.iter
    (fun row ->
      Problem.add_row p
        (Array.to_list (Array.map (fun v -> (v, 1.0)) row))
        Problem.Eq
        (float_of_int fw.k))
    x;
  Array.iter
    (fun (u, v, w) ->
      Array.iteri
        (fun c wc ->
          if wc > 0.0 then begin
            let y = Problem.add_var p ~upper:1.0 ~obj:wc () in
            Problem.add_row p [ (y, 1.0); (x.(u).(c), -1.0) ] Problem.Le 0.0;
            Problem.add_row p [ (y, 1.0); (x.(v).(c), -1.0) ] Problem.Le 0.0
          end)
        w)
    fw.pairs;
  match Simplex.solve p with
  | Simplex.Optimal s -> s.objective
  | Simplex.Infeasible | Simplex.Unbounded ->
      Alcotest.fail "pairwise program must be feasible and bounded"

let check_feasible ?(eps = 1e-6) (fw : Fw.problem) x =
  Array.iter
    (fun row ->
      let total = Array.fold_left ( +. ) 0.0 row in
      Alcotest.(check (float eps)) "row sums to k" (float_of_int fw.k) total;
      Array.iter
        (fun v ->
          Alcotest.(check bool) "bounds" true (v >= -.eps && v <= 1.0 +. eps))
        row)
    x

(* The generator stores every pair as (min, max). This variant stores
   every third pair as (max, min) and repeats two pairs, one in each
   orientation, so both endpoints of a pair can be its first-listed
   one and a user's row can hold two entries for the same neighbour
   and item. *)
let mixed_orientation (fw : Fw.problem) =
  let pairs =
    Array.mapi
      (fun i (u, v, w) -> if i mod 3 = 0 then (v, u, w) else (u, v, w))
      fw.pairs
  in
  { fw with pairs = Array.append pairs [| pairs.(0); pairs.(1) |] }

(* ---- sparse-vs-dense gradient equivalence ------------------------- *)

let test_gradient_matches_reference () =
  let rng = Rng.create 71 in
  for trial = 1 to 10 do
    let fw = fw_random_problem rng ~n:9 ~m:11 ~k:3 ~edges:20 ~density:0.4 in
    let fw = if trial mod 2 = 0 then mixed_orientation fw else fw in
    let x =
      Array.init fw.n (fun _ -> Array.init fw.m (fun _ -> Rng.float rng 1.0))
    in
    let smoothing = 0.03 in
    let sparse = Fw.gradient ~smoothing fw x in
    let dense = Array.init fw.n (fun _ -> Array.make fw.m 0.0) in
    Reference.gradient fw ~smoothing x dense;
    for u = 0 to fw.n - 1 do
      for c = 0 to fw.m - 1 do
        if Float.abs (sparse.(u).(c) -. dense.(u).(c)) > 1e-9 then
          Alcotest.failf "gradient mismatch at (%d,%d): %.12f vs %.12f" u c
            sparse.(u).(c) dense.(u).(c)
      done
    done
  done

(* ---- objective agreement with the exact simplex ------------------- *)

let test_fw_matches_exact_across_seeds () =
  for seed = 1 to 20 do
    let rng = Rng.create (500 + seed) in
    let fw = fw_random_problem rng ~n:5 ~m:6 ~k:2 ~edges:7 ~density:0.7 in
    let s =
      Fw.solve ~iterations:3000 ~smoothing:0.01 ~gap_tol:1e-4 ~swap_steps:true
        fw
    in
    let exact = exact_pairwise_optimum fw in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fw below exact (%.6f vs %.6f)" seed s.objective
         exact)
      true
      (s.objective <= exact +. 1e-6);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fw within tolerance (%.6f vs %.6f)" seed
         s.objective exact)
      true
      (s.objective >= 0.97 *. exact)
  done

(* ---- serial-vs-parallel bit-identity ------------------------------ *)

(* k = 4 takes the insertion oracle, k = 18 [Select.top_k]. *)
let test_serial_parallel_bit_identical () =
  let solve_with ~k ~swap ~mixed domains =
    (* Fresh problem per run so no shared mutable state can leak. *)
    let rng = Rng.create 83 in
    let fw = fw_random_problem rng ~n:37 ~m:24 ~k ~edges:90 ~density:0.3 in
    let fw = if mixed then mixed_orientation fw else fw in
    Fw.solve ~iterations:120 ~smoothing:0.02 ~gap_tol:1e-6 ~domains
      ~swap_steps:swap fw
  in
  List.iter
    (fun (k, swap, mixed) ->
      let base = solve_with ~k ~swap ~mixed 1 in
      List.iter
        (fun domains ->
          let s = solve_with ~k ~swap ~mixed domains in
          Alcotest.(check bool)
            (Printf.sprintf
               "identical iterate (k=%d domains=%d swap=%b mixed=%b)" k
               domains swap mixed)
            true (s.x = base.x);
          Alcotest.(check bool) "identical objective" true
            (s.objective = base.objective);
          Alcotest.(check bool) "identical gap" true (s.gap = base.gap);
          Alcotest.(check int) "identical iterations" base.iterations
            s.iterations)
        [ 2; 3; 7 ])
    [
      (4, false, false);
      (4, true, false);
      (4, false, true);
      (4, true, true);
      (18, false, false);
      (18, true, true);
    ]

(* ---- golden digests ------------------------------------------------ *)

(* Every float of a solve pinned bit for bit: objective, gap and ub in
   hex, the iteration count, and a CRC-32 of the returned iterate's
   IEEE bits. The constants were captured before the sweep was split
   into its share and gather passes; any change to the sweep's
   arithmetic or accumulation order shows up here. *)
let digest (s : Fw.solution) =
  let n = Array.length s.x in
  let m = if n = 0 then 0 else Array.length s.x.(0) in
  let buf = Bytes.create (8 * n * m) in
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun c v ->
          Bytes.set_int64_le buf (8 * ((u * m) + c)) (Int64.bits_of_float v))
        row)
    s.x;
  Printf.sprintf "obj %h gap %h ub %h it %d crc %08x" s.objective s.gap s.ub
    s.iterations
    (Svgic_util.Crc32.update_bytes 0 buf ~pos:0 ~len:(Bytes.length buf))

let golden =
  [
    ( false,
      "obj 0x1.5b1af4b909409p+6 gap 0x1.4883cf4c98c18p-2 ub 0x1.5c489c0b8ce1ap+6 it 150 crc 86e05ef1" );
    ( true,
      "obj 0x1.5b817714b963dp+6 gap 0x1.36bf51ac19f3ep+0 ub 0x1.6059faf22590fp+6 it 150 crc 2ab9ff4a" );
  ]

let test_golden_digests () =
  List.iter
    (fun (swap, want) ->
      List.iter
        (fun domains ->
          let rng = Rng.create 211 in
          let fw =
            mixed_orientation
              (fw_random_problem rng ~n:29 ~m:10 ~k:3 ~edges:70 ~density:0.35)
          in
          let s =
            Fw.solve ~iterations:150 ~smoothing:0.02 ~domains ~swap_steps:swap
              fw
          in
          let got = digest s in
          if got <> want then
            Alcotest.failf "swap=%b domains=%d: digest %S, want %S" swap
              domains got want)
        [ 1; 2; 3 ])
    golden

(* The shape plan_large runs: one shard view of a Timik-like
   community graph (attach 2, 2% cross edges, p ~ U(0,1),
   tau ~ U(0,0.5), lambda = 0.5) at m = 12, k = 4, solved with the Auto
   backend's Frank-Wolfe settings. The constant was captured before the
   serial sweep became one pass over the pairs. *)
let shard_golden =
  "obj 0x1.b3e62e5a4c9b1p+8 gap 0x1.3922711beb9bp-1 ub 0x1.b4815d10fbc3p+8 it 2000 crc 56f74d81"

let test_shard_golden_digest () =
  let m = 12 and k = 4 in
  let g, labels =
    Svgic_graph.Generate.timik_like (Rng.create 1200) ~n:400 ~communities:4
      ~attach:2 ~cross_frac:0.02
  in
  let rng = Rng.create 7 in
  let pref =
    Float.Array.init
      (Svgic_graph.Graph.n g * m)
      (fun _ -> Rng.float rng 1.0)
  in
  let tau =
    Float.Array.init
      (Svgic_graph.Graph.num_edges g * m)
      (fun _ -> Rng.float rng 0.5)
  in
  let inst = Svgic.Instance.of_flat ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau in
  let part =
    Svgic.Shard.partition ~labelling:(Svgic.Shard.Labels labels) inst
  in
  let shard = part.Svgic.Shard.shards.(0).Svgic.Shard.inst in
  let fw = Svgic.Lp_build.fw_problem shard in
  Alcotest.(check int) "shard users" 100 fw.n;
  let gap_tol = 1e-3 *. float_of_int (fw.n * fw.k) in
  List.iter
    (fun domains ->
      let s =
        Fw.solve ~iterations:2_000 ~smoothing:0.02 ~gap_tol ~domains
          ~swap_steps:true fw
      in
      let got = digest s in
      if got <> shard_golden then
        Alcotest.failf "domains=%d: digest %S, want %S" domains got
          shard_golden)
    [ 1; 2 ]

(* ---- oracle tie-break --------------------------------------------- *)

(* Without pairs the gradient is the linear row, and the first step
   (gamma = 1) lands exactly on the oracle vertex, so the returned
   iterate names the coordinates the oracle picked: of equal gradients
   the lowest index. *)
let test_oracle_lowest_index_tie_break () =
  let vertex linear k =
    let m = Array.length linear in
    let fw = Fw.{ n = 1; m; k; linear = [| linear |]; pairs = [||] } in
    let s = Fw.solve ~iterations:1 ~domains:1 fw in
    List.filter (fun c -> s.x.(0).(c) = 1.0) (List.init m Fun.id)
  in
  let linear = [| 1.0; 3.0; 3.0; 2.0; 3.0; 0.0; 3.0 |] in
  Alcotest.(check (list int)) "top 2 of four tied" [ 1; 2 ] (vertex linear 2);
  Alcotest.(check (list int)) "top 5" [ 1; 2; 3; 4; 6 ] (vertex linear 5)

(* ---- malformed problems ------------------------------------------- *)

let test_rejects_malformed_problems () =
  let fw =
    Fw.
      {
        n = 3;
        m = 4;
        k = 2;
        linear = Array.make 3 [| 1.0; 0.5; 0.0; 2.0 |];
        pairs = [| (0, 2, [| 1.0; 0.0; 1.0; 0.0 |]) |];
      }
  in
  let rejects name p =
    match Fw.solve ~iterations:5 ~domains:1 p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: solved, want Invalid_argument" name
  in
  rejects "too few linear rows" { fw with linear = Array.sub fw.linear 0 2 };
  rejects "self-pair"
    { fw with pairs = [| (1, 1, [| 1.0; 0.0; 0.0; 0.0 |]) |] };
  rejects "endpoint out of range"
    { fw with pairs = [| (0, 3, [| 1.0; 0.0; 0.0; 0.0 |]) |] }

(* ---- allocation-free serial iterations ---------------------------- *)

(* A serial solve allocates its sweep state and result once; no
   iteration allocates, so doubling the budget adds no minor words.
   Without [gap_tol] both budgets run to the end. *)
let test_serial_iterations_allocate_nothing () =
  let rng = Rng.create 223 in
  let fw = fw_random_problem rng ~n:40 ~m:10 ~k:3 ~edges:90 ~density:0.35 in
  let words ~swap iterations =
    let w0 = Gc.minor_words () in
    let s =
      Fw.solve ~iterations ~smoothing:0.02 ~domains:1 ~swap_steps:swap fw
    in
    let w1 = Gc.minor_words () in
    Alcotest.(check int) "full budget" iterations s.iterations;
    w1 -. w0
  in
  List.iter
    (fun swap ->
      let w100 = words ~swap 100 and w200 = words ~swap 200 in
      if w200 <> w100 then
        Alcotest.failf "swap=%b: %.0f minor words at 200 iterations, %.0f at 100"
          swap w200 w100)
    [ false; true ]

(* ---- duality-gap stopping ----------------------------------------- *)

let test_gap_tolerance_stopping () =
  let rng = Rng.create 91 in
  let fw = fw_random_problem rng ~n:12 ~m:10 ~k:3 ~edges:25 ~density:0.5 in
  let budget = 8000 in
  let solve tol =
    Fw.solve ~iterations:budget ~smoothing:0.02 ~gap_tol:tol ~swap_steps:true
      fw
  in
  let prev_obj = ref neg_infinity in
  List.iter
    (fun tol ->
      let s = solve tol in
      Alcotest.(check bool)
        (Printf.sprintf "stopped inside budget at tol %.3f" tol)
        true
        (s.iterations < budget);
      Alcotest.(check bool)
        (Printf.sprintf "gap %.6f <= tol %.3f" s.gap tol)
        true (s.gap <= tol);
      Alcotest.(check bool)
        (Printf.sprintf "tighter tol no worse (%.6f >= %.6f)" s.objective
           !prev_obj)
        true
        (s.objective >= !prev_obj -. 1e-9);
      prev_obj := s.objective)
    [ 2.0; 0.5; 0.05 ]

(* ---- feasibility (both step modes) -------------------------------- *)

let test_feasibility_both_modes () =
  let rng = Rng.create 97 in
  let fw = fw_random_problem rng ~n:8 ~m:9 ~k:3 ~edges:16 ~density:0.4 in
  List.iter
    (fun swap ->
      let s = Fw.solve ~iterations:200 ~smoothing:0.03 ~swap_steps:swap fw in
      check_feasible fw s.x)
    [ false; true ]

(* ---- engine vs retained prototype --------------------------------- *)

let test_engine_tracks_prototype () =
  (* Same schedule, same oracle: the sparse engine differs from the
     prototype only in float accumulation order, so the best exact
     objectives must agree tightly. *)
  let rng = Rng.create 103 in
  for _trial = 1 to 3 do
    let fw = fw_random_problem rng ~n:7 ~m:8 ~k:3 ~edges:12 ~density:0.6 in
    let s = Fw.solve ~iterations:300 ~smoothing:0.05 ~domains:1 fw in
    let r = Reference.solve ~iterations:300 ~smoothing:0.05 fw in
    Alcotest.(check (float 1e-4)) "same best objective" r.objective s.objective
  done

(* ---- Relaxation reports the achieved gap -------------------------- *)

let test_relaxation_reports_gap () =
  let rng = Rng.create 109 in
  let inst =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:12 ~m:10 ~k:3
      ~lambda:0.5
  in
  let exact = Svgic.Relaxation.solve ~backend:Svgic.Relaxation.Exact_simplex inst in
  Alcotest.(check bool) "exact path has no gap" true (exact.fw_gap = None);
  let saved = Svgic.Relaxation.backend_budget () in
  (* Shrink the budget so Auto must route this instance to FW. *)
  Svgic.Relaxation.set_backend_budget
    { Svgic.Relaxation.exact_vars = 10; exact_nnz = 10 };
  let fw = Svgic.Relaxation.solve inst in
  Svgic.Relaxation.set_backend_budget saved;
  (match fw.Svgic.Relaxation.fw_gap with
  | Some g -> Alcotest.(check bool) "finite non-negative gap" true (g >= 0.0 && Float.is_finite g)
  | None -> Alcotest.fail "Auto FW solve must report its gap");
  Alcotest.(check bool) "fw below exact optimum" true
    (fw.Svgic.Relaxation.scaled_objective
    <= exact.Svgic.Relaxation.scaled_objective +. 1e-6);
  (* Certificate soundness with a known smoothing: objective + gap +
     smoothing·ln2·W must bracket the exact relaxation optimum, where
     W is the total pair-weight mass. *)
  let smoothing = 0.01 in
  let fw2 =
    Svgic.Relaxation.solve
      ~backend:
        (Svgic.Relaxation.Frank_wolfe
           {
             iterations = 2_000;
             smoothing;
             gap_tol = Some 0.01;
             domains = None;
           })
      inst
  in
  let w_mass =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun a w -> a +. Float.abs w) acc row)
      0.0
      (Svgic.Instance.pair_weights inst)
  in
  let slack = smoothing *. Float.log 2.0 *. w_mass in
  Alcotest.(check bool) "certificate brackets the optimum" true
    (fw2.Svgic.Relaxation.scaled_objective
     +. Option.get fw2.Svgic.Relaxation.fw_gap
     +. slack +. 1e-6
    >= exact.Svgic.Relaxation.scaled_objective)

let suite =
  [
    Alcotest.test_case "sparse gradient = dense oracle" `Quick
      test_gradient_matches_reference;
    Alcotest.test_case "fw vs exact simplex (20 seeds)" `Quick
      test_fw_matches_exact_across_seeds;
    Alcotest.test_case "serial = parallel bit-identical" `Quick
      test_serial_parallel_bit_identical;
    Alcotest.test_case "golden solve digests" `Quick test_golden_digests;
    Alcotest.test_case "golden plan_large shard digest" `Quick
      test_shard_golden_digest;
    Alcotest.test_case "oracle keeps the lowest-index tie-break" `Quick
      test_oracle_lowest_index_tie_break;
    Alcotest.test_case "rejects malformed problems" `Quick
      test_rejects_malformed_problems;
    Alcotest.test_case "serial iterations allocate nothing" `Quick
      test_serial_iterations_allocate_nothing;
    Alcotest.test_case "gap-tolerance stopping" `Quick
      test_gap_tolerance_stopping;
    Alcotest.test_case "feasibility in both step modes" `Quick
      test_feasibility_both_modes;
    Alcotest.test_case "engine tracks prototype" `Quick
      test_engine_tracks_prototype;
    Alcotest.test_case "relaxation reports achieved gap" `Quick
      test_relaxation_reports_gap;
  ]
