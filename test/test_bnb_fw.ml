(* Frank-Wolfe branch-and-bound (Boscia-style): equivalence against
   the simplex engine and brute force, warm/cold determinism, anytime
   certificates under deadlines, and fault recovery inside node
   solves. *)

module Problem = Svgic_lp.Problem
module Branch_bound = Svgic_lp.Branch_bound
module Pairwise_fw = Svgic_lp.Pairwise_fw
module Rng = Svgic_util.Rng
module Fault = Svgic_util.Fault
module Supervise = Svgic_util.Supervise

(* Random pairwise selection problems small enough to brute force. *)
let random_problem seed ~n ~m ~k ~edges =
  let rng = Rng.create seed in
  let linear =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let pairs = ref [] in
  for _ = 1 to edges do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let w =
        Array.init m (fun _ ->
            if Rng.bool rng then Rng.float rng 1.0 else 0.0)
      in
      pairs := (min u v, max u v, w) :: !pairs
    end
  done;
  { Pairwise_fw.n; m; k; linear; pairs = Array.of_list !pairs }

(* Exhaustive optimum over integral selections (each user any k-subset
   of the m items), for ground truth at tiny sizes. *)
let brute_force (p : Pairwise_fw.problem) =
  let subsets = ref [] in
  let rec build chosen start count =
    if count = p.k then subsets := Array.of_list (List.rev chosen) :: !subsets
    else
      for c = start to p.m - 1 do
        build (c :: chosen) (c + 1) (count + 1)
      done
  in
  build [] 0 0;
  let subsets = Array.of_list !subsets in
  let x = Array.make_matrix p.n p.m 0.0 in
  let choice = Array.make p.n 0 in
  let best = ref neg_infinity in
  let rec enumerate u =
    if u = p.n then begin
      let obj = Pairwise_fw.objective p x in
      if obj > !best then best := obj
    end
    else
      Array.iteri
        (fun i subset ->
          choice.(u) <- i;
          Array.fill x.(u) 0 p.m 0.0;
          Array.iter (fun c -> x.(u).(c) <- 1.0) subset;
          enumerate (u + 1))
        subsets
  in
  enumerate 0;
  !best

(* The same program as an ILP for the simplex engine: binary x(u,c)
   rows summing to k, continuous y <= min linearization. *)
let ilp_of (p : Pairwise_fw.problem) =
  let ilp = Problem.create () in
  let x =
    Array.init p.n (fun u ->
        Array.init p.m (fun c ->
            Problem.add_var ilp ~upper:1.0 ~obj:p.linear.(u).(c) ()))
  in
  Array.iter
    (fun row ->
      Problem.add_row ilp
        (Array.to_list (Array.map (fun v -> (v, 1.0)) row))
        Problem.Eq
        (float_of_int p.k))
    x;
  Array.iter
    (fun (u, v, w) ->
      Array.iteri
        (fun c wc ->
          if wc > 0.0 then begin
            let y = Problem.add_var ilp ~upper:1.0 ~obj:wc () in
            Problem.add_row ilp [ (y, 1.0); (x.(u).(c), -1.0) ] Problem.Le 0.0;
            Problem.add_row ilp [ (y, 1.0); (x.(v).(c), -1.0) ] Problem.Le 0.0
          end)
        w)
    p.pairs;
  (ilp, Array.concat (Array.to_list (Array.map Array.copy x)))

let fw_options ?(warm_start = true) ?time_budget_s ?node_budget () =
  { Branch_bound.default_options with warm_start; time_budget_s; node_budget }

let fw =
  {
    Branch_bound.default_fw_options with
    node_iterations = 250;
    smoothing = 0.002;
    leaf_gap_tol = 1e-5;
  }

(* The proof tolerance solve_fw works to, mirrored here so the
   equivalence asserts exactly what the engine promises. *)
let proof_tol (p : Pairwise_fw.problem) =
  Float.max 1e-6 ((0.002 *. Float.log 2.0 *. Pairwise_fw.weight_mass p) +. 1e-5)

(* ≥20 seeds: the FW tree's certified optimum must agree with both the
   simplex tree and brute force to within the FW proof tolerance. *)
let test_fw_vs_simplex_equivalence () =
  for seed = 1 to 24 do
    let p = random_problem seed ~n:4 ~m:5 ~k:2 ~edges:6 in
    let exact = brute_force p in
    let ilp, binaries = ilp_of p in
    let simplex = Branch_bound.solve ilp ~binary:binaries in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "seed %d: simplex tree matches brute force" seed)
      exact simplex.Branch_bound.objective;
    let r = Branch_bound.solve_fw ~fw ~options:(fw_options ()) p in
    let tol = proof_tol p in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fw tree proved" seed)
      true r.Branch_bound.proved_optimal;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fw incumbent within proof tol (%.4f vs %.4f)"
         seed r.Branch_bound.objective exact)
      true
      (r.Branch_bound.objective >= exact -. tol
      && r.Branch_bound.objective <= exact +. 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fw bound covers the optimum" seed)
      true
      (r.Branch_bound.bound >= exact -. 1e-9)
  done

(* Incumbents are exact evaluations of integral points, so when the
   proof tolerance separates the optimum from the runner-up, warm and
   cold trees must return the identical selection bit for bit. *)
let test_warm_cold_identity () =
  let checked = ref 0 in
  let seed = ref 100 in
  while !checked < 20 do
    incr seed;
    let p = random_problem !seed ~n:4 ~m:5 ~k:2 ~edges:6 in
    let exact = brute_force p in
    let warm = Branch_bound.solve_fw ~fw ~options:(fw_options ()) p in
    let cold =
      Branch_bound.solve_fw ~fw ~options:(fw_options ~warm_start:false ()) p
    in
    Alcotest.(check int) "cold tree takes no warm starts" 0
      cold.Branch_bound.warm_starts;
    (* Only assert bit-identity when both trees provably pinned the
       unique optimum (incumbent equal to brute force within float
       evaluation noise). *)
    let pinned r =
      r.Branch_bound.proved_optimal
      && Float.abs (r.Branch_bound.objective -. exact) <= 1e-9
    in
    if pinned warm && pinned cold then begin
      incr checked;
      match (warm.Branch_bound.incumbent, cold.Branch_bound.incumbent) with
      | Some w, Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: warm = cold selection" !seed)
            true (w = c)
      | _ -> Alcotest.fail "missing incumbent on a proved tree"
    end;
    if !seed > 400 then
      Alcotest.fail "could not collect 20 uniquely-pinned instances"
  done

(* Warm starts must not cost iterations: over the seed family, the
   warm tree's total FW iterations stay at or below the cold tree's
   (this is the whole point of carrying the parent iterate). *)
let test_warm_saves_iterations () =
  let warm_total = ref 0 and cold_total = ref 0 in
  for seed = 1 to 12 do
    let p = random_problem seed ~n:5 ~m:6 ~k:2 ~edges:8 in
    let warm = Branch_bound.solve_fw ~fw ~options:(fw_options ()) p in
    let cold =
      Branch_bound.solve_fw ~fw ~options:(fw_options ~warm_start:false ()) p
    in
    warm_total := !warm_total + warm.Branch_bound.fw_iterations;
    cold_total := !cold_total + cold.Branch_bound.fw_iterations;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: warm tree used warm starts" seed)
      true
      (warm.Branch_bound.warm_starts > 0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "warm iterations <= cold (%d vs %d)" !warm_total
       !cold_total)
    true
    (!warm_total <= !cold_total)

(* Deadline mid-tree: an expired token yields the incumbent plus a
   valid global gap certificate instead of nothing. *)
let test_deadline_mid_tree () =
  let p = random_problem 7 ~n:5 ~m:6 ~k:2 ~edges:8 in
  let exact = brute_force p in
  (* Node budget 1: the root is solved and rounded, then the budget
     trips with both children still open — deterministic "mid-tree". *)
  let r = Branch_bound.solve_fw ~fw ~options:(fw_options ~node_budget:1 ()) p in
  Alcotest.(check bool) "timed out" true r.Branch_bound.timed_out;
  Alcotest.(check bool) "not proved" false r.Branch_bound.proved_optimal;
  (match r.Branch_bound.incumbent with
  | Some x ->
      Alcotest.(check (float 1e-9))
        "incumbent objective is its exact evaluation"
        r.Branch_bound.objective
        (Pairwise_fw.objective p x)
  | None -> Alcotest.fail "no incumbent from the root node");
  Alcotest.(check bool) "bound >= incumbent" true
    (r.Branch_bound.bound >= r.Branch_bound.objective -. 1e-9);
  Alcotest.(check bool) "bound covers the optimum" true
    (r.Branch_bound.bound >= exact -. 1e-9);
  (* An already-expired supervision token: still a sound (if trivial)
     anytime answer, never an exception. *)
  let r2 =
    Branch_bound.solve_fw ~fw ~options:(fw_options ())
      ~token:(Supervise.expired_token ()) p
  in
  Alcotest.(check bool) "expired token times out" true
    r2.Branch_bound.timed_out

(* Fault injection inside node solves: crashes, NaN warm starts and
   expired node tokens are all recovered by the cold retry, and the
   tree still proves the same optimum as a clean run. *)
let test_fault_recovery () =
  let p = random_problem 11 ~n:4 ~m:5 ~k:2 ~edges:6 in
  let clean = Branch_bound.solve_fw ~fw ~options:(fw_options ()) p in
  Alcotest.(check bool) "clean run proved" true
    clean.Branch_bound.proved_optimal;
  List.iter
    (fun kind ->
      Fault.configure ~seed:3 ~rate:1.0 ~kinds:[ kind ];
      Fun.protect ~finally:Fault.clear (fun () ->
          let faulty = Branch_bound.solve_fw ~fw ~options:(fw_options ()) p in
          Alcotest.(check bool) "faulty run proved" true
            faulty.Branch_bound.proved_optimal;
          Alcotest.(check (float 1e-9))
            "faulty run finds the same optimum"
            clean.Branch_bound.objective faulty.Branch_bound.objective))
    [ Fault.Crash; Fault.Nan; Fault.Timeout ]

(* The depth schedule and incumbent early stop must not break
   soundness on a problem with heavier social coupling. *)
let test_certificate_sound_dense () =
  for seed = 30 to 34 do
    let p = random_problem seed ~n:4 ~m:4 ~k:2 ~edges:10 in
    let exact = brute_force p in
    let r = Branch_bound.solve_fw ~fw ~options:(fw_options ()) p in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: bound >= optimum" seed)
      true
      (r.Branch_bound.bound >= exact -. 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: incumbent <= optimum" seed)
      true
      (r.Branch_bound.objective <= exact +. 1e-9)
  done

let suite =
  [
    Alcotest.test_case "fw tree vs simplex tree vs brute force" `Quick
      test_fw_vs_simplex_equivalence;
    Alcotest.test_case "warm = cold selection bit-identity" `Quick
      test_warm_cold_identity;
    Alcotest.test_case "warm starts save iterations" `Quick
      test_warm_saves_iterations;
    Alcotest.test_case "deadline mid-tree yields incumbent + gap" `Quick
      test_deadline_mid_tree;
    Alcotest.test_case "fault recovery inside node solves" `Quick
      test_fault_recovery;
    Alcotest.test_case "certificate sound on dense coupling" `Quick
      test_certificate_sound_dense;
  ]
