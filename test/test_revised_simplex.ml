(* The revised simplex against the dense tableau oracle, plus the
   warm-start contract and the branch-and-bound regression the warm
   starts are for. *)

module Problem = Svgic_lp.Problem
module Simplex = Svgic_oracles.Simplex
module Revised = Svgic_lp.Revised_simplex
module Branch_bound = Svgic_lp.Branch_bound
module Rng = Svgic_util.Rng
module Supervise = Svgic_util.Supervise

let solve_revised_optimal p =
  match Revised.solve p with
  | Revised.Optimal s -> s
  | Revised.Infeasible -> Alcotest.fail "revised: unexpected infeasible"
  | Revised.Unbounded -> Alcotest.fail "revised: unexpected unbounded"
  | Revised.Timeout _ -> Alcotest.fail "revised: unexpected timeout"

let check_obj ?(eps = 1e-7) msg expected (s : Revised.solution) =
  if Float.abs (s.objective -. expected) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected s.objective

(* ------------------ textbook programs ----------------------------- *)

let test_textbook () =
  (* max 3x + 2y, x + y <= 4, x + 3y <= 6 -> 12 at (4, 0) *)
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:3.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:2.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Le 4.0;
  Problem.add_row p [ (x, 1.0); (y, 3.0) ] Problem.Le 6.0;
  let s = solve_revised_optimal p in
  check_obj "objective" 12.0 s;
  Alcotest.(check (float 1e-7)) "x" 4.0 s.x.(x);
  Alcotest.(check (float 1e-7)) "y" 0.0 s.x.(y)

let test_equality_and_bounds () =
  (* max 2a + b, a + b = 3, a <= 1 -> 4 at (1, 2) *)
  let p = Problem.create () in
  let a = Problem.add_var p ~upper:1.0 ~obj:2.0 ~name:"a" () in
  let b = Problem.add_var p ~obj:1.0 ~name:"b" () in
  Problem.add_row p [ (a, 1.0); (b, 1.0) ] Problem.Eq 3.0;
  let s = solve_revised_optimal p in
  check_obj "objective" 4.0 s;
  Alcotest.(check (float 1e-7)) "a at bound" 1.0 s.x.(a)

let test_ge_rows () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6 == max -x - y -> -2.8 *)
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:(-1.0) ~name:"x" () in
  let y = Problem.add_var p ~obj:(-1.0) ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 2.0) ] Problem.Ge 4.0;
  Problem.add_row p [ (x, 3.0); (y, 1.0) ] Problem.Ge 6.0;
  let s = solve_revised_optimal p in
  check_obj "objective" (-2.8) s

let test_lower_bounds () =
  (* max -x with x in [2, 5] -> -2; revised and dense oracle. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~upper:5.0 ~obj:(-1.0) ~name:"x" () in
  Problem.set_lower p x 2.0;
  let s = solve_revised_optimal p in
  check_obj "revised objective" (-2.0) s;
  (match Simplex.solve p with
  | Simplex.Optimal d ->
      Alcotest.(check (float 1e-7)) "dense objective" (-2.0) d.objective
  | Simplex.Infeasible | Simplex.Unbounded ->
      Alcotest.fail "dense: expected optimal");
  Alcotest.(check (float 1e-7)) "x at lower" 2.0 s.x.(x)

let test_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, 1.0) ] Problem.Ge 2.0;
  match Revised.solve p with
  | Revised.Infeasible -> ()
  | Revised.Optimal _ | Revised.Unbounded | Revised.Timeout _ ->
      Alcotest.fail "expected infeasible"

let test_infeasible_box () =
  let p = Problem.create () in
  let x = Problem.add_var p ~upper:1.0 ~obj:1.0 ~name:"x" () in
  Problem.set_lower p x 2.0;
  match Revised.solve p with
  | Revised.Infeasible -> ()
  | Revised.Optimal _ | Revised.Unbounded | Revised.Timeout _ ->
      Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:0.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, -1.0) ] Problem.Le 1.0;
  match Revised.solve p with
  | Revised.Unbounded -> ()
  | Revised.Optimal _ | Revised.Infeasible | Revised.Timeout _ ->
      Alcotest.fail "expected unbounded"

let test_degenerate () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:1.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (y, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, 2.0); (y, 2.0) ] Problem.Le 2.0;
  let s = solve_revised_optimal p in
  check_obj "objective" 1.0 s

(* ------------------ randomized oracle cross-check ----------------- *)

(* Random LPs that are feasible by construction: draw x0 inside the
   box, then write rows as a.x (cmp) a.x0 +/- slack so x0 satisfies
   them. Seeds cover degenerate programs (duplicate rows, zero slack)
   and upper-bound-tight optima (tiny boxes the objective pushes
   into). *)
let random_problem seed =
  let rng = Rng.create (1000 + seed) in
  let nv = 1 + Rng.int rng 9 in
  let nr = Rng.int rng 12 in
  let tight_uppers = seed mod 3 = 0 in
  let degenerate = seed mod 4 = 0 in
  let p = Problem.create () in
  let x0 = Array.make nv 0.0 in
  for i = 0 to nv - 1 do
    let lower = if Rng.bernoulli rng 0.3 then Rng.float rng 1.5 else 0.0 in
    let span = if tight_uppers then Rng.float rng 0.5 else 1.0 +. Rng.float rng 4.0 in
    let upper = lower +. span in
    let obj = Rng.float rng 6.0 -. 2.0 in
    let v = Problem.add_var p ~upper ~obj () in
    Problem.set_lower p v lower;
    assert (v = i);
    x0.(i) <-
      (if degenerate && Rng.bool rng then if Rng.bool rng then lower else upper
       else lower +. Rng.float rng span)
  done;
  let rows = ref [] in
  for _ = 1 to nr do
    let coeffs =
      Array.init nv (fun _ ->
          if Rng.bernoulli rng 0.5 then Rng.float rng 4.0 -. 1.0 else 0.0)
    in
    let at_x0 = ref 0.0 in
    Array.iteri (fun i c -> at_x0 := !at_x0 +. (c *. x0.(i))) coeffs;
    let slack = if degenerate && Rng.bool rng then 0.0 else Rng.float rng 2.0 in
    let terms =
      Array.to_list (Array.mapi (fun i c -> (i, c)) coeffs)
      |> List.filter (fun (_, c) -> c <> 0.0)
    in
    if terms <> [] then begin
      let row =
        match Rng.int rng 3 with
        | 0 -> (terms, Problem.Le, !at_x0 +. slack)
        | 1 -> (terms, Problem.Ge, !at_x0 -. slack)
        | _ -> (terms, Problem.Eq, !at_x0)
      in
      let terms, cmp, rhs = row in
      Problem.add_row p terms cmp rhs;
      rows := row :: !rows;
      (* Sometimes duplicate the row verbatim: classic degeneracy. *)
      if degenerate && Rng.bernoulli rng 0.3 then Problem.add_row p terms cmp rhs
    end
  done;
  (p, x0)

let test_random_cross_check () =
  let checked = ref 0 in
  for seed = 0 to 119 do
    let p, x0 = random_problem seed in
    let dense = Simplex.solve p in
    let revised = Revised.solve p in
    (match (dense, revised) with
    | Simplex.Optimal d, Revised.Optimal r ->
        if Float.abs (d.objective -. r.objective) > 1e-6 then
          Alcotest.failf "seed %d: dense %.9f vs revised %.9f" seed d.objective
            r.objective;
        if not (Problem.check_feasible ~eps:1e-6 p r.x) then
          Alcotest.failf "seed %d: revised solution infeasible" seed;
        if r.objective < Problem.eval_objective p x0 -. 1e-6 then
          Alcotest.failf "seed %d: revised below known feasible point" seed
    | Simplex.Infeasible, Revised.Infeasible ->
        Alcotest.failf "seed %d: feasible-by-construction LP reported infeasible"
          seed
    | Simplex.Unbounded, Revised.Unbounded -> ()
    | _ -> Alcotest.failf "seed %d: status disagreement" seed);
    incr checked
  done;
  Alcotest.(check bool) "at least 100 instances" true (!checked >= 100)

(* ------------------ factorization updates ------------------------- *)

(* Eta-append updates against the testing anchor: a fresh
   factorization after every pivot. Any drift between the updated
   factor and the recomputed one would surface here as an objective
   gap or a status flip. *)
let test_lu_updates_equal_fresh_factorization () =
  let optimal = ref 0 in
  for seed = 0 to 119 do
    let p, _ = random_problem seed in
    let updated = Revised.solve p in
    let fresh = Revised.solve ~refactor_every:1 p in
    match (updated, fresh) with
    | Revised.Optimal u, Revised.Optimal f ->
        incr optimal;
        if Float.abs (u.objective -. f.objective) > 1e-7 then
          Alcotest.failf "seed %d: updated %.9f vs fresh %.9f" seed u.objective
            f.objective;
        if not (Problem.check_feasible ~eps:1e-6 p u.x) then
          Alcotest.failf "seed %d: updated solution infeasible" seed
    | Revised.Infeasible, Revised.Infeasible
    | Revised.Unbounded, Revised.Unbounded -> ()
    | _ -> Alcotest.failf "seed %d: update-policy status disagreement" seed
  done;
  Alcotest.(check bool) "at least 100 optimal programs" true (!optimal >= 100)

(* Counter plumbing on a program big enough to pivot and rebuild:
   [LP_SIMP] of a mid-size instance, solved through [Relaxation] so
   the [lp_stats] surfacing is pinned at the same time. *)
let test_lu_stats_sanity () =
  let rng = Rng.create 321 in
  let inst =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:30 ~m:40 ~k:3
      ~lambda:0.5
  in
  let relax = Svgic.Relaxation.solve inst in
  (match relax.Svgic.Relaxation.lp_stats with
  | None -> Alcotest.fail "exact revised solve must surface lp_stats"
  | Some { Svgic.Relaxation.pivots; factor; _ } ->
      Alcotest.(check bool) "pivoted" true (pivots > 0);
      Alcotest.(check bool)
        "rebuilt at least the initial basis" true
        (factor.Revised.refactorizations >= 1);
      Alcotest.(check bool) "factor holds nonzeros" true
        (factor.Revised.fill_nnz > 0);
      Alcotest.(check bool) "basis nonzeros counted" true
        (factor.Revised.basis_nnz > 0);
      Alcotest.(check bool)
        "one update eta per pivot at most" true
        (factor.Revised.eta_appends <= pivots);
      Alcotest.(check bool) "factor time is sane" true
        (factor.Revised.factor_s >= 0.0));
  let fw =
    Svgic.Relaxation.solve
      ~backend:
        (Svgic.Relaxation.Frank_wolfe
           { iterations = 50; smoothing = 0.05; gap_tol = None; domains = None })
      inst
  in
  Alcotest.(check bool)
    "first-order path carries no simplex counters" true
    (fw.Svgic.Relaxation.lp_stats = None)

(* A Timeout partial from the LU engine must hand back an installable
   basis: resuming from it reaches the same optimum as a cold solve. *)
let test_lu_timeout_partial_resumes () =
  let p, _ = random_problem 11 in
  let cold = solve_revised_optimal p in
  match Revised.solve ~token:(Supervise.expired_token ()) p with
  | Revised.Timeout partial -> (
      match Revised.solve ~basis:partial.Revised.basis p with
      | Revised.Optimal resumed ->
          Alcotest.(check (float 1e-7))
            "resume reaches the cold optimum" cold.objective resumed.objective
      | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ ->
          Alcotest.fail "resume from a partial basis must reach optimality")
  | Revised.Optimal _ | Revised.Infeasible | Revised.Unbounded ->
      Alcotest.fail "expected timeout under an expired token"

(* Health-guard recovery, replayed on the LU engine (the relaxation's
   exact engine): a fault-injected sharded round completes, the clean
   shards stay exact, and the objective never falls below the
   all-greedy floor. *)
let test_lu_fault_injection_recovers () =
  let module Fault = Svgic_util.Fault in
  let module Shard = Svgic.Shard in
  let rng = Rng.create 4242 in
  let inst =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:24 ~m:8 ~k:2
      ~lambda:0.5
  in
  let part =
    Shard.partition ~rng:(Rng.create 0) ~labelling:(Shard.Balanced 4) inst
  in
  let floor =
    Svgic.Config.total_utility inst (Svgic.Algorithms.top_k_greedy inst)
  in
  Fault.configure ~seed:5 ~rate:0.5
    ~kinds:[ Fault.Timeout; Fault.Nan; Fault.Crash ];
  Fun.protect ~finally:Fault.clear (fun () ->
      let res =
        Shard.solve_round
          ~rounding:(Shard.Avg_d { r = None })
          (Rng.create 5) part
      in
      Alcotest.(check bool)
        "degraded accounting matches the fault matrix" true
        (Array.to_list res.Shard.degraded
        = List.init
            (Array.length res.Shard.degraded)
            (fun i -> Fault.at ~site:"shard.solve" ~index:i <> None));
      Alcotest.(check bool)
        "objective at or above the greedy floor" true
        (Svgic.Config.total_utility inst res.Shard.config >= floor -. 1e-9))

(* ------------------ warm-start contract --------------------------- *)

let test_warm_equals_cold () =
  for seed = 0 to 39 do
    let p, _ = random_problem seed in
    match Revised.solve p with
    | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ -> ()
    | Revised.Optimal first ->
        (* Perturb bounds the way branch-and-bound does: clamp one
           variable to one of its bounds, then re-solve warm and
           cold. *)
        let rng = Rng.create (7000 + seed) in
        let v = Rng.int rng (Problem.num_vars p) in
        let q = Problem.clone p in
        (if Rng.bool rng then
           Problem.set_upper q v (Some (Problem.lower_bound q v))
         else
           match Problem.upper_bound q v with
           | Some u -> Problem.set_lower q v u
           | None -> Problem.set_lower q v (Problem.lower_bound q v +. 1.0));
        let cold = Revised.solve q in
        let warm = Revised.solve ~basis:first.basis q in
        (match (cold, warm) with
        | Revised.Optimal c, Revised.Optimal w ->
            if Float.abs (c.objective -. w.objective) > 1e-6 then
              Alcotest.failf "seed %d: warm %.9f vs cold %.9f" seed w.objective
                c.objective;
            if not (Problem.check_feasible ~eps:1e-6 q w.x) then
              Alcotest.failf "seed %d: warm solution infeasible" seed
        | Revised.Infeasible, Revised.Infeasible -> ()
        | Revised.Unbounded, Revised.Unbounded -> ()
        | _ -> Alcotest.failf "seed %d: warm/cold status disagreement" seed)
  done

let test_warm_shape_mismatch_falls_back () =
  let p, _ = random_problem 2 in
  let s = solve_revised_optimal p in
  (* A basis from a structurally different LP must be ignored, not
     crash or corrupt the solve. *)
  let q, _ = random_problem 3 in
  match Revised.solve ~basis:s.basis q with
  | Revised.Optimal w ->
      let cold = solve_revised_optimal q in
      Alcotest.(check (float 1e-6)) "same objective" cold.objective w.objective
  | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ ->
      Alcotest.fail "expected optimal under fallback"

(* ------------------ supervision ----------------------------------- *)

(* An expired deadline is honoured within one iteration: the solve
   returns Timeout without having pivoted, and promptly (the poll sits
   at the top of the pivot loop, before any pricing work). *)
let test_expired_token_times_out () =
  let p, _ = random_problem 5 in
  let t0 = Unix.gettimeofday () in
  (match Revised.solve ~token:(Supervise.expired_token ()) p with
  | Revised.Timeout partial ->
      Alcotest.(check int) "no pivots under an expired token" 0 partial.pivots
  | Revised.Optimal _ | Revised.Infeasible | Revised.Unbounded ->
      Alcotest.fail "expected timeout under an expired token");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returns promptly" true (elapsed < 1.0)

let test_cancel_times_out () =
  let p, _ = random_problem 7 in
  let token = Supervise.unlimited () in
  Supervise.cancel token;
  match Revised.solve ~token p with
  | Revised.Timeout _ -> ()
  | Revised.Optimal _ | Revised.Infeasible | Revised.Unbounded ->
      Alcotest.fail "expected timeout under a cancelled token"

(* Supervision must be free on the clean path: a solve under a token
   that never expires is bit-identical (status, objective, solution
   vector, pivot count) to the unsupervised solve. *)
let test_unlimited_token_bit_identical () =
  for seed = 0 to 39 do
    let p, _ = random_problem seed in
    let q, _ = random_problem seed in
    let plain = Revised.solve p in
    let supervised = Revised.solve ~token:(Supervise.unlimited ()) q in
    match (plain, supervised) with
    | Revised.Optimal a, Revised.Optimal b ->
        if a.objective <> b.objective then
          Alcotest.failf "seed %d: objective %.17g vs %.17g" seed a.objective
            b.objective;
        if a.pivots <> b.pivots then
          Alcotest.failf "seed %d: pivot path diverged (%d vs %d)" seed
            a.pivots b.pivots;
        Array.iteri
          (fun i v ->
            if v <> b.x.(i) then
              Alcotest.failf "seed %d: x.(%d) differs" seed i)
          a.x
    | Revised.Infeasible, Revised.Infeasible
    | Revised.Unbounded, Revised.Unbounded -> ()
    | _ -> Alcotest.failf "seed %d: status disagreement" seed
  done

(* Corrupted and wrong-shape warm bases must be rejected at install
   time and fall back to the cold start bit-for-bit — same objective,
   same solution vector, same pivot path. *)
let test_corrupted_warm_equals_cold () =
  let exercised = ref 0 in
  for seed = 0 to 19 do
    let p, _ = random_problem seed in
    match Revised.solve p with
    | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ -> ()
    | Revised.Optimal cold ->
        incr exercised;
        let entries = Revised.vbasis_entries cold.basis in
        let garbage =
          (* every status out of range: the basic set is empty, which
             cannot match the row count of any constrained program *)
          Revised.vbasis_of_entries (Array.map (fun _ -> 7) entries)
        in
        let wrong_shape =
          Revised.vbasis_of_entries
            (Array.make (Array.length entries + 3) 0)
        in
        List.iter
          (fun (what, basis) ->
            match Revised.solve ~basis p with
            | Revised.Optimal w ->
                if w.objective <> cold.objective then
                  Alcotest.failf "seed %d (%s): objective differs" seed what;
                if w.pivots <> cold.pivots then
                  Alcotest.failf "seed %d (%s): pivot path diverged" seed what;
                Array.iteri
                  (fun i v ->
                    if v <> w.x.(i) then
                      Alcotest.failf "seed %d (%s): x.(%d) differs" seed what i)
                  cold.x
            | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ ->
                Alcotest.failf "seed %d (%s): status differs from cold" seed
                  what)
          [ ("garbage", garbage); ("wrong-shape", wrong_shape) ]
  done;
  Alcotest.(check bool) "exercised some programs" true (!exercised >= 10)

(* Non-finite problem data must be rejected up front, not solved. *)
let test_nonfinite_data_rejected () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:Float.nan ~name:"x" () in
  Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0;
  match Revised.solve p with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on NaN objective"

(* ------------------ branch-and-bound regression ------------------- *)

(* A knapsack with side constraints: fractional at the root and at
   most internal nodes, so the tree is deep enough that warm starts
   have something to reuse. *)
let make_bb_problem () =
  let rng = Rng.create 4711 in
  let nv = 16 in
  let p = Problem.create () in
  let weights = Array.make nv 0.0 in
  let vars =
    Array.init nv (fun i ->
        let w = 1.0 +. Rng.float rng 9.0 in
        weights.(i) <- w;
        (* Value correlated with weight: the classic hard knapsack
           shape with fractional LP optima. *)
        let value = w +. Rng.float rng 2.0 in
        Problem.add_var p ~upper:1.0 ~obj:value ())
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  Problem.add_row p
    (Array.to_list (Array.mapi (fun i v -> (v, weights.(i))) vars))
    Problem.Le (0.45 *. total);
  (* Pairwise conflicts between a few adjacent items. *)
  for i = 0 to 4 do
    Problem.add_row p
      [ (vars.(2 * i), 1.0); (vars.((2 * i) + 1), 1.0) ]
      Problem.Le 1.0
  done;
  (p, vars)

let test_bb_warm_start_consistent () =
  let problem, binaries = make_bb_problem () in
  let run warm_start =
    let options = { Branch_bound.default_options with warm_start } in
    Branch_bound.solve ~options (Problem.clone problem) ~binary:binaries
  in
  let warm = run true in
  let cold = run false in
  (match (warm.Branch_bound.incumbent, cold.Branch_bound.incumbent) with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "both runs must find an incumbent");
  Alcotest.(check (float 1e-6))
    "same incumbent objective" cold.Branch_bound.objective
    warm.Branch_bound.objective;
  Alcotest.(check bool) "warm proved" true warm.Branch_bound.proved_optimal;
  Alcotest.(check bool) "cold proved" true cold.Branch_bound.proved_optimal;
  if warm.Branch_bound.pivots >= cold.Branch_bound.pivots then
    Alcotest.failf "warm starts should pivot less: warm %d vs cold %d"
      warm.Branch_bound.pivots cold.Branch_bound.pivots

(* ------------------ backend selection ----------------------------- *)

let test_choose_backend_budget () =
  let rng = Rng.create 99 in
  let small =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:6 ~m:6 ~k:2
      ~lambda:0.5
  in
  (match Svgic.Relaxation.choose_backend small with
  | Svgic.Relaxation.Exact_simplex -> ()
  | _ -> Alcotest.fail "small instance should solve exactly");
  (* A shape past the calibrated ~2 s exact-solve envelope (>= 10k LP
     variables) must route to the certified Frank-Wolfe engine. *)
  let rng = Rng.create 100 in
  let big =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:60 ~m:100 ~k:4
      ~lambda:0.5
  in
  let vars =
    (Svgic.Instance.n big + Array.length (Svgic.Instance.pairs big))
    * Svgic.Instance.m big
  in
  Alcotest.(check bool) "shape is >= 10k vars" true (vars >= 10_000);
  (match Svgic.Relaxation.choose_backend big with
  | Svgic.Relaxation.Frank_wolfe { gap_tol = Some tol; _ } ->
      Alcotest.(check bool) "auto FW carries a positive gap tol" true (tol > 0.0)
  | _ -> Alcotest.fail "beyond the envelope should be certified Frank-Wolfe");
  (* The budget is configuration, not a constant: growing it must pull
     the same instance back onto the exact path. *)
  let saved = Svgic.Relaxation.backend_budget () in
  Svgic.Relaxation.set_backend_budget
    { Svgic.Relaxation.exact_vars = 100_000; exact_nnz = 600_000 };
  (match Svgic.Relaxation.choose_backend big with
  | Svgic.Relaxation.Exact_simplex -> ()
  | _ -> Alcotest.fail "grown budget should select the exact path");
  Svgic.Relaxation.set_backend_budget saved

(* Table 1's running example (40 LP_SIMP variables): the exact path
   returns a reusable basis and the dense oracle's optimum. *)
let test_relaxation_exact_on_example () =
  let inst = Svgic.Example_paper.instance () in
  let problem, _ = Svgic.Lp_build.simp_lp inst in
  Alcotest.(check int) "40 variables" 40 (Problem.num_vars problem);
  let relax = Svgic.Relaxation.solve inst in
  Alcotest.(check bool) "exact path returns a basis" true
    (relax.Svgic.Relaxation.basis <> None);
  match Simplex.solve problem with
  | Simplex.Optimal d ->
      Alcotest.(check (float 1e-9)) "objective = dense oracle" d.objective
        relax.Svgic.Relaxation.scaled_objective
  | Simplex.Infeasible | Simplex.Unbounded ->
      Alcotest.fail "dense oracle: expected optimal"

let test_relaxation_exact_on_medium () =
  (* End-to-end: an instance beyond the old 1500-variable budget now
     solves exactly, and the exact objective dominates Frank-Wolfe. *)
  let rng = Rng.create 321 in
  let inst =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:30 ~m:40 ~k:3
      ~lambda:0.5
  in
  let vars =
    (Svgic.Instance.n inst + Array.length (Svgic.Instance.pairs inst))
    * Svgic.Instance.m inst
  in
  Alcotest.(check bool) "beyond old budget" true (vars > 1500);
  let exact = Svgic.Relaxation.solve inst in
  let fw =
    Svgic.Relaxation.solve
      ~backend:
        (Svgic.Relaxation.Frank_wolfe
           { iterations = 300; smoothing = 0.05; gap_tol = None; domains = None })
      inst
  in
  Alcotest.(check bool) "exact >= fw - tol" true
    (exact.Svgic.Relaxation.scaled_objective
    >= fw.Svgic.Relaxation.scaled_objective -. 1e-6)

(* ------------------ golden digests -------------------------------- *)

(* LP_SIMP programs of the shapes the exact path solves in production,
   pinned bit for bit: the objective in hex, the pivot, rebuild and
   update counts, the base fill, a CRC-32 of the IEEE bits of [x] and
   one of the returned basis entries. The constants were captured
   before the solver's allocation work (the per-domain workspace, flat
   [Problem] rows, small working-matrix arrays, inlined float helpers);
   none of it may change a pivot. *)

let crc_floats a =
  let buf = Bytes.create (8 * Array.length a) in
  Array.iteri
    (fun i v -> Bytes.set_int64_le buf (8 * i) (Int64.bits_of_float v))
    a;
  Svgic_util.Crc32.update_bytes 0 buf ~pos:0 ~len:(Bytes.length buf)

let crc_ints a =
  let buf = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int64_le buf (8 * i) (Int64.of_int v)) a;
  Svgic_util.Crc32.update_bytes 0 buf ~pos:0 ~len:(Bytes.length buf)

let lp_digest = function
  | Revised.Optimal s ->
      Printf.sprintf "opt %h piv %d refac %d etas %d fill %d x %08x basis %08x"
        s.Revised.objective s.Revised.pivots s.Revised.stats.refactorizations
        s.Revised.stats.eta_appends s.Revised.stats.fill_nnz (crc_floats s.x)
        (crc_ints (Revised.vbasis_entries s.basis))
  | Revised.Timeout p ->
      Printf.sprintf "timeout %h piv %d feasible %b x %08x basis %08x"
        p.Revised.objective p.Revised.pivots p.Revised.feasible
        (crc_floats p.Revised.x)
        (crc_ints (Revised.vbasis_entries p.Revised.basis))
  | Revised.Infeasible -> "infeasible"
  | Revised.Unbounded -> "unbounded"

(* One 30-user Timik-like serving shard (m = 6, k = 4). *)
let timik_shard_lp seed =
  let rng = Rng.create seed in
  let g, _ =
    Svgic_graph.Generate.timik_like rng ~n:30 ~communities:1 ~attach:2
      ~cross_frac:0.0
  in
  fst (Svgic.Lp_build.simp_lp (Helpers.arenas_instance rng g ~m:6 ~k:4))

(* One planted community the size of a plan_unlabelled shard: 30 users
   at p_in = 0.2, about 1,050 rows. *)
let planted_shard_lp seed =
  let rng = Rng.create seed in
  let g, _ =
    Svgic_graph.Generate.planted_partition rng ~n:30 ~communities:1 ~p_in:0.2
      ~p_out:0.0
  in
  fst (Svgic.Lp_build.simp_lp (Helpers.arenas_instance rng g ~m:6 ~k:4))

(* The serving warm path: every seventh objective coefficient drifts,
   the rows stay, and the re-solve starts from the old optimal basis. *)
let drifted p =
  let q = Problem.clone p in
  let objs = Problem.objective p in
  Array.iteri
    (fun j c -> if j mod 7 = 3 then Problem.set_obj q j ((0.5 *. c) +. 0.125))
    objs;
  q

(* A serving tick's usual drift: three preference coefficients. *)
let nudged p =
  let q = Problem.clone p in
  List.iter
    (fun (j, c) -> Problem.set_obj q j c)
    [ (5, 0.9); (17, 0.05); (101, 0.7) ];
  q

(* A branch-and-bound child: pure bound fixings on the root program. *)
let fixed_node p =
  let q = Problem.clone p in
  Problem.set_upper q 2 (Some 0.0);
  Problem.set_upper q 9 (Some 0.0);
  Problem.set_lower q 13 1.0;
  Problem.set_lower q 40 1.0;
  q

let root_basis p =
  match Revised.solve p with
  | Revised.Optimal s -> s.Revised.basis
  | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ ->
      Alcotest.fail "golden root program must solve"

(* (name, solve) pairs; each thunk builds its program afresh. *)
let golden_programs =
  [
    ("timik30 cold", fun () -> Revised.solve (timik_shard_lp 3));
    ( "timik30 warm after objective drift",
      fun () ->
        let p = timik_shard_lp 3 in
        Revised.solve ~basis:(root_basis p) (drifted p) );
    ( "timik30 bnb node",
      fun () ->
        let p = timik_shard_lp 3 in
        Revised.solve ~basis:(root_basis p) (fixed_node p) );
    ( "timik30 warm after three coefficients",
      fun () ->
        let p = timik_shard_lp 3 in
        Revised.solve ~basis:(root_basis p) (nudged p) );
    ("timik30 seed 8 cold", fun () -> Revised.solve (timik_shard_lp 8));
    ("planted30 cold", fun () -> Revised.solve (planted_shard_lp 5));
    ( "planted30 warm after objective drift",
      fun () ->
        let p = planted_shard_lp 5 in
        Revised.solve ~basis:(root_basis p) (drifted p) );
  ]

let golden_lp =
  [
    ( "timik30 cold",
      "opt 0x1.d5e65fb00830bp+6 piv 690 refac 29 etas 690 fill 1412 x b1130a6d basis 751d4fd5" );
    ( "timik30 warm after objective drift",
      "opt 0x1.ce7a32e29aff8p+6 piv 92 refac 12 etas 92 fill 1398 x 84835d9d basis e8eb759e" );
    ( "timik30 bnb node",
      "opt 0x1.d2af2bd00d7c8p+6 piv 322 refac 46 etas 322 fill 1378 x ef6a2378 basis 25b57261" );
    ( "timik30 warm after three coefficients",
      "opt 0x1.d79d409d471f8p+6 piv 36 refac 5 etas 36 fill 1353 x 3bd96b76 basis f16100f1" );
    ( "timik30 seed 8 cold",
      "opt 0x1.fe40a116913cdp+6 piv 742 refac 30 etas 742 fill 1550 x f4f98bb3 basis 79da3595" );
    ( "planted30 cold",
      "opt 0x1.bd06608819b18p+7 piv 1491 refac 121 etas 1491 fill 2517 x 094c966e basis de35f8f5" );
    ( "planted30 warm after objective drift",
      "opt 0x1.ada5e8d348d9ap+7 piv 88 refac 18 etas 88 fill 2412 x 17b79e88 basis d181b129" );
  ]

let golden_bnb =
  "obj 0x1.9f48a70a8af5cp+5 bound 0x1.9f48a70a8af5cp+5 nodes 61 piv 234 refac 119 x 605824ba"

(* Every mismatch is reported, not just the first, so a drift shows
   its whole extent. *)
let test_golden_lp_digests () =
  let bad = ref [] in
  let check name got want =
    if got <> want then
      bad := Printf.sprintf "%s: digest %S, want %S" name got want :: !bad
  in
  List.iter
    (fun (name, solve) ->
      check name (lp_digest (solve ())) (List.assoc name golden_lp))
    golden_programs;
  (* The branch-and-bound tree over the knapsack: every node re-solve
     warm starts from its parent. *)
  let problem, binaries = make_bb_problem () in
  let r = Branch_bound.solve problem ~binary:binaries in
  check "bnb knapsack"
    (Printf.sprintf "obj %h bound %h nodes %d piv %d refac %d x %08x"
       r.Branch_bound.objective r.Branch_bound.bound r.Branch_bound.nodes
       r.Branch_bound.pivots r.Branch_bound.refactorizations
       (crc_floats (Option.get r.Branch_bound.incumbent)))
    golden_bnb;
  if !bad <> [] then Alcotest.fail (String.concat "\n" (List.rev !bad))

(* The general path, pinned by one CRC-32 over the digests of all 120
   [random_problem] solves and of their [~refactor_every:1] twins.
   Unlike the LP_SIMP goldens above, these programs have [Ge] and [Eq]
   logicals (a lower bound of -inf, or a zero range), positive lower
   bounds and duplicated rows, so they reach the phase-1 classification
   and the bound-flip paths that LP_SIMP never does. *)
let golden_random_crc = 0x6e559e32

let test_golden_random_digests () =
  let digests = Buffer.create 16384 in
  for seed = 0 to 119 do
    let p, _ = random_problem seed in
    Buffer.add_string digests (lp_digest (Revised.solve p));
    Buffer.add_char digests '\n';
    Buffer.add_string digests (lp_digest (Revised.solve ~refactor_every:1 p));
    Buffer.add_char digests '\n'
  done;
  Alcotest.(check string)
    "CRC of 240 random-program digests"
    (Printf.sprintf "%08x" golden_random_crc)
    (Printf.sprintf "%08x" (Svgic_util.Crc32.of_string (Buffer.contents digests)))

(* ------------------ workspace isolation --------------------------- *)

(* A solve takes its working arrays and its factor from a per-domain
   workspace. Nothing a solve leaves there may leak into the next one:
   programs of different shapes run through one domain, interleaved
   with solves that end early — an expired token, non-finite data, an
   unbounded program (which exits with an FTRANed column still in the
   scratch), a pivot limit hit inside the pivot loop and a fault-
   injected sharded round — must each give exactly what the same
   program gives solved alone in a fresh domain, and what a parallel
   fan-out gives. *)
let isolation_programs =
  [
    ("random 11", fun () -> Revised.solve (fst (random_problem 11)));
    ("timik30", fun () -> Revised.solve (timik_shard_lp 3));
    ("random 4", fun () -> Revised.solve (fst (random_problem 4)));
    ( "timik30 warm after objective drift",
      fun () ->
        let p = timik_shard_lp 8 in
        Revised.solve ~basis:(root_basis p) (drifted p) );
    ( "knapsack node",
      fun () ->
        let p, _ = make_bb_problem () in
        let q = Problem.clone p in
        Problem.set_upper q 1 (Some 0.0);
        Problem.set_lower q 4 1.0;
        Revised.solve ~basis:(root_basis p) q );
    ("random 2", fun () -> Revised.solve (fst (random_problem 2)));
  ]

let unbounded_problem () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 () in
  let y = Problem.add_var p ~obj:0.0 () in
  Problem.add_row p [ (x, 1.0); (y, -1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, -1.0); (y, 1.0) ] Problem.Le 2.0;
  p

let disturbances =
  [|
    (fun () ->
      match
        Revised.solve ~token:(Supervise.expired_token ()) (planted_shard_lp 5)
      with
      | Revised.Timeout _ -> ()
      | _ -> Alcotest.fail "expired token: expected Timeout");
    (fun () ->
      let p = timik_shard_lp 3 in
      Problem.set_obj p 7 Float.infinity;
      match Revised.solve p with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "non-finite objective: expected Failure");
    (fun () ->
      match Revised.solve (unbounded_problem ()) with
      | Revised.Unbounded -> ()
      | _ -> Alcotest.fail "expected Unbounded");
    (fun () ->
      match Revised.solve ~max_pivots:3 (timik_shard_lp 8) with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "pivot limit: expected Failure");
    (fun () ->
      let module Fault = Svgic_util.Fault in
      let module Shard = Svgic.Shard in
      let inst =
        Svgic_data.Datasets.make Svgic_data.Datasets.Timik (Rng.create 4242)
          ~n:24 ~m:8 ~k:2 ~lambda:0.5
      in
      let part =
        Shard.partition ~rng:(Rng.create 0) ~labelling:(Shard.Balanced 4) inst
      in
      Fault.configure ~seed:5 ~rate:0.5
        ~kinds:[ Fault.Timeout; Fault.Nan; Fault.Crash ];
      Fun.protect ~finally:Fault.clear (fun () ->
          ignore
            (Shard.solve_round ~domains:1
               ~rounding:(Shard.Avg_d { r = None })
               (Rng.create 5) part)));
  |]

let digests_alone () =
  List.map
    (fun (name, solve) ->
      (name, Domain.join (Domain.spawn (fun () -> lp_digest (solve ())))))
    isolation_programs

let test_workspace_isolation () =
  let alone = digests_alone () in
  let interleaved =
    List.mapi
      (fun i (name, solve) ->
        disturbances.(i mod Array.length disturbances) ();
        (name, lp_digest (solve ())))
      isolation_programs
  in
  List.iter2
    (fun (name, want) (_, got) ->
      if got <> want then
        Alcotest.failf "%s interleaved: digest %S, alone %S" name got want)
    alone interleaved;
  let progs = Array.of_list isolation_programs in
  List.iter
    (fun domains ->
      let par =
        Svgic_util.Pool.parallel_map ~domains (Array.length progs) (fun i ->
            lp_digest ((snd progs.(i)) ()))
      in
      List.iteri
        (fun i (name, want) ->
          if par.(i) <> want then
            Alcotest.failf "%s on %d domains: digest %S, alone %S" name domains
              par.(i) want)
        alone)
    [ 2; 3; 4 ]

(* The busy rule: a solve that starts while its domain's workspace is
   held works on private arrays. A SIGALRM handler runs at the pivot
   loop's poll points, so a solve inside it re-enters while the outer
   solve holds the workspace; both must still give the alone
   digests. *)
let test_workspace_reentry () =
  let outer = planted_shard_lp 5 and inner = fst (random_problem 11) in
  let want_outer = lp_digest (Revised.solve outer) in
  let want_inner = lp_digest (Revised.solve inner) in
  let in_outer = ref false and reentered = ref 0 and inner_bad = ref [] in
  let handler _ =
    if !in_outer then begin
      incr reentered;
      let got = lp_digest (Revised.solve inner) in
      if got <> want_inner then inner_bad := got :: !inner_bad
    end
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  let tick = { Unix.it_interval = 0.002; it_value = 0.002 } in
  let off = { Unix.it_interval = 0.0; it_value = 0.0 } in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL off);
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL tick);
      let attempts = ref 0 in
      while !reentered = 0 && !attempts < 20 do
        incr attempts;
        in_outer := true;
        let got = lp_digest (Revised.solve outer) in
        in_outer := false;
        if got <> want_outer then
          Alcotest.failf "outer solve under re-entry: digest %S, want %S" got
            want_outer
      done);
  Alcotest.(check bool) "a solve re-entered mid-solve" true (!reentered > 0);
  match !inner_bad with
  | [] -> ()
  | got :: _ ->
      Alcotest.failf "re-entrant solve: digest %S, want %S" got want_inner

let suite =
  [
    Alcotest.test_case "revised textbook" `Quick test_textbook;
    Alcotest.test_case "revised equality+bounds" `Quick test_equality_and_bounds;
    Alcotest.test_case "revised >= rows" `Quick test_ge_rows;
    Alcotest.test_case "revised lower bounds" `Quick test_lower_bounds;
    Alcotest.test_case "revised infeasible" `Quick test_infeasible;
    Alcotest.test_case "revised infeasible box" `Quick test_infeasible_box;
    Alcotest.test_case "revised unbounded" `Quick test_unbounded;
    Alcotest.test_case "revised degenerate" `Quick test_degenerate;
    Alcotest.test_case "revised vs dense oracle (120 seeds)" `Quick
      test_random_cross_check;
    Alcotest.test_case "lu updates = fresh factorization (120 seeds)" `Quick
      test_lu_updates_equal_fresh_factorization;
    Alcotest.test_case "lu stats sanity + lp_stats surfacing" `Quick
      test_lu_stats_sanity;
    Alcotest.test_case "lu timeout partial resumes" `Quick
      test_lu_timeout_partial_resumes;
    Alcotest.test_case "lu fault-injection recovery" `Quick
      test_lu_fault_injection_recovers;
    Alcotest.test_case "warm start equals cold solve" `Quick
      test_warm_equals_cold;
    Alcotest.test_case "warm start shape fallback" `Quick
      test_warm_shape_mismatch_falls_back;
    Alcotest.test_case "expired token times out" `Quick
      test_expired_token_times_out;
    Alcotest.test_case "cancelled token times out" `Quick
      test_cancel_times_out;
    Alcotest.test_case "unlimited token bit-identical" `Quick
      test_unlimited_token_bit_identical;
    Alcotest.test_case "corrupted warm basis = cold (bit-for-bit)" `Quick
      test_corrupted_warm_equals_cold;
    Alcotest.test_case "non-finite data rejected" `Quick
      test_nonfinite_data_rejected;
    Alcotest.test_case "bb warm start consistent" `Quick
      test_bb_warm_start_consistent;
    Alcotest.test_case "backend budget rule" `Quick test_choose_backend_budget;
    Alcotest.test_case "relaxation exact on the running example" `Quick
      test_relaxation_exact_on_example;
    Alcotest.test_case "relaxation exact beyond old budget" `Quick
      test_relaxation_exact_on_medium;
    Alcotest.test_case "golden LP digests" `Quick test_golden_lp_digests;
    Alcotest.test_case "golden random-program digests (240 solves)" `Quick
      test_golden_random_digests;
    Alcotest.test_case "workspace isolation: interleaved = alone = parallel"
      `Quick test_workspace_isolation;
    Alcotest.test_case "workspace busy rule: re-entrant solve" `Quick
      test_workspace_reentry;
  ]
