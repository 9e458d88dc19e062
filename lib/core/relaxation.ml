module Revised = Svgic_lp.Revised_simplex
module Supervise = Svgic_util.Supervise
module Select = Svgic_util.Select

type backend =
  | Exact_simplex
  | Frank_wolfe of {
      iterations : int;
      smoothing : float;
      gap_tol : float option;
      domains : int option;
    }
  | Auto

type budget = { exact_vars : int; exact_nnz : int }

(* Calibrated against BENCH_kernels.json lp_solve rows (revised
   simplex, sparse-LU factorization): ~64 ms at 1.9k variables, ~3.9 s
   at 13.3k. Fitting the power law between those points puts the ~2 s
   exact-solve envelope at ~9.5k variables / ~32k matrix nonzeros.
   Instances beyond the envelope go to the certified Frank-Wolfe
   engine. *)
let default_budget = { exact_vars = 9_500; exact_nnz = 32_000 }

let budget_ref = ref default_budget
let backend_budget () = !budget_ref
let set_backend_budget b = budget_ref := b

type lp_stats = {
  pivots : int;
  factor : Revised.stats;
  nodes : int;
  fw_iterations : int;
  max_depth : int;
  gap_fathoms : int;
  warm_starts : int;
}

(* Counters of a single (non-branching) solve: one node, no
   Frank-Wolfe sweeps. Branch-and-bound paths aggregate instead. *)
let single_solve_stats pivots factor =
  {
    pivots;
    factor;
    nodes = 1;
    fw_iterations = 0;
    max_depth = 0;
    gap_fathoms = 0;
    warm_starts = 0;
  }

let zero_factor_stats =
  {
    Revised.refactorizations = 0;
    fill_nnz = 0;
    basis_nnz = 0;
    eta_appends = 0;
    factor_s = 0.0;
  }

type t = {
  xbar : float array array;
  scaled_objective : float;
  basis : Revised.vbasis option;
  fw_gap : float option;
  degraded : bool;
  lp_stats : lp_stats option;
}

(* LP_SIMP shape without building the program: (n + np) * m variables,
   n + 2 * np * m rows, and n * m + 4 * np * m matrix nonzeros. *)
let lp_simp_shape inst =
  let n = Instance.n inst
  and m = Instance.m inst
  and np = Instance.num_pairs inst in
  let vars = (n + np) * m in
  let rows = n + (2 * np * m) in
  let nnz = (n * m) + (4 * np * m) in
  (vars, rows, nnz)

(* Default stopping tolerance for the Auto Frank-Wolfe path: per-user
   utilities are O(1) per slot, so the objective scale is about n·k
   and 1e-3 of it certifies the solve to a fraction of a percent. *)
let default_fw_gap_tol inst =
  1e-3 *. float_of_int (Instance.n inst * Instance.k inst)

let choose_backend inst =
  let b = !budget_ref in
  let vars, _, nnz = lp_simp_shape inst in
  if vars <= b.exact_vars && nnz <= b.exact_nnz then Exact_simplex
  else
    Frank_wolfe
      {
        iterations = 2_000;
        smoothing = 0.02;
        gap_tol = Some (default_fw_gap_tol inst);
        domains = None;
      }

(* Internal: a supervised exact solve timed out before reaching a
   feasible iterate, so there is nothing to return — the ladder's
   remaining rungs (which are all cheap) decide what to do. *)
exception Deadline_exhausted

(* Exact solve of an arbitrary [Problem] by the revised simplex.
   Returns the final basis, so callers can warm start re-solves; the
   last component is [false] when the result is a feasible but
   non-optimal deadline partial. *)
let solve_exact ?warm ?token ~what problem =
  match Revised.solve ?basis:warm ?token problem with
  | Revised.Optimal { x; objective; basis; pivots; stats } ->
      (x, objective, Some basis, Some (single_solve_stats pivots stats), true)
  | Revised.Infeasible ->
      failwith (Printf.sprintf "Relaxation.solve: %s reported infeasible" what)
  | Revised.Unbounded ->
      failwith (Printf.sprintf "Relaxation.solve: %s reported unbounded" what)
  | Revised.Timeout p when p.Revised.feasible ->
      (* A feasible partial is a usable (degraded) relaxation point:
         every downstream consumer only needs feasibility, the
         optimality only sharpened the bound. *)
      ( p.Revised.x,
        p.Revised.objective,
        Some p.Revised.basis,
        Some (single_solve_stats p.Revised.pivots p.Revised.stats),
        false )
  | Revised.Timeout _ -> raise Deadline_exhausted

let solve_simplex ?warm ?token inst =
  let problem, x_var = Lp_build.simp_lp inst in
  (* The uniform point k/m is always feasible, so infeasibility here is
     a solver bug, not an input condition. *)
  let x, objective, basis, lp_stats, complete =
    solve_exact ?warm ?token ~what:"LP_SIMP" problem
  in
  let n = Instance.n inst and m = Instance.m inst in
  let xbar = Array.init n (fun u -> Array.init m (fun c -> x.(x_var u c))) in
  { xbar; scaled_objective = objective; basis; fw_gap = None;
    degraded = not complete; lp_stats }

let solve_fw ~iterations ~smoothing ~gap_tol ~domains ?token inst =
  let problem = Lp_build.fw_problem inst in
  let solution =
    Svgic_lp.Pairwise_fw.solve ~iterations ~smoothing ?gap_tol ?domains ?token
      ~swap_steps:true problem
  in
  {
    xbar = solution.x;
    scaled_objective = solution.objective;
    basis = None;
    fw_gap = Some solution.gap;
    degraded = solution.timed_out;
    lp_stats = None;
  }

(* Bottom rung of the ladder: each user's top-k preferred items as an
   integral (hence feasible) relaxation point. Needs no LP, no RNG and
   no social data, so it cannot fail and costs O(n·m log m); its
   scaled objective is evaluated exactly so the certificate stays
   true. *)
let greedy_fallback inst =
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  let xbar = Array.make_matrix n m 0.0 in
  for u = 0 to n - 1 do
    Array.iter
      (fun c -> xbar.(u).(c) <- 1.0)
      (Select.top_k k (Array.init m (fun c -> Instance.pref inst u c)))
  done;
  let objective = Svgic_lp.Pairwise_fw.objective (Lp_build.fw_problem inst) xbar in
  { xbar; scaled_objective = objective; basis = None; fw_gap = None;
    degraded = true; lp_stats = None }

(* The config-phase degradation ladder (DESIGN.md §5):
     exact -> exact retry (cold, no warm basis)
           -> gap-certified Frank-Wolfe (serial)
           -> top-k greedy baseline.
   The ladder only engages on failure, so the clean path is
   bit-identical to the unsupervised solve. Failures descend, deadline
   exhaustion (which makes every further LP attempt pointless) jumps
   straight to the greedy floor. A caller that would rather crash than
   degrade can watch the [degraded] flag — or not pass a token and let
   [Failure] escape from the final rung. *)
let solve ?(backend = Auto) ?warm ?token inst =
  let backend = match backend with Auto -> choose_backend inst | b -> b in
  let expired () =
    match token with Some t -> Supervise.expired t | None -> false
  in
  let fw_fallback () =
    try
      solve_fw ~iterations:2_000 ~smoothing:0.02
        ~gap_tol:(Some (default_fw_gap_tol inst))
        ~domains:(Some 1) ?token inst
    with Failure _ -> greedy_fallback inst
  in
  match backend with
  | Auto -> assert false
  | Frank_wolfe { iterations; smoothing; gap_tol; domains } -> (
      (* FW failures (a non-finite screen) are data-level and would
         repeat identically, so the only rung below is the greedy
         floor. *)
      try solve_fw ~iterations ~smoothing ~gap_tol ~domains ?token inst
      with Failure _ -> greedy_fallback inst)
  | Exact_simplex -> (
      match solve_simplex ?warm ?token inst with
      | r -> r
      | exception Deadline_exhausted -> greedy_fallback inst
      | exception Failure msg -> (
          if token = None then failwith msg
          else if expired () then greedy_fallback inst
          else
            (* Retry rung: drop the (possibly poisoned) warm basis; the
               revised engine's internal recovery ladder (reinversion,
               Bland restart, perturbed retry) is the actual repair
               mechanism. *)
            match solve_simplex ?token inst with
            | r -> { r with degraded = true }
            | exception (Deadline_exhausted | Failure _) ->
                if expired () then greedy_fallback inst else fw_fallback ()))

let solve_without_transform inst =
  let problem, maps = Lp_build.full_lp inst in
  let x, objective, basis, lp_stats, _ = solve_exact ~what:"LP_SVGIC" problem in
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  let xbar =
    Array.init n (fun u ->
        Array.init m (fun c ->
            let acc = ref 0.0 in
            for s = 0 to k - 1 do
              acc := !acc +. x.(maps.x_var u c s)
            done;
            !acc))
  in
  { xbar; scaled_objective = objective; basis; fw_gap = None; degraded = false;
    lp_stats }

let upper_bound inst r = Instance.objective_scale inst *. r.scaled_objective

let factor inst r u c = r.xbar.(u).(c) /. float_of_int (Instance.k inst)

(* ------------------------------------------------------------------ *)
(* Certified integer solves: a branch-and-bound ladder over the
   compact selection objective (LP_SIMP with the y variables
   substituted out — every user's k-item selection, co-selection
   counted per pair). The integer selection optimum is a sound upper
   bound on any slot-aligned configuration's utility, and tighter than
   the fractional relaxation bound the Frank-Wolfe certificate gives,
   which is what the per-shard certificate wants. *)

type integer_engine = Bnb_simplex | Bnb_fw | Fw_fractional

type integer_result = {
  xint : float array array option;
      (* integral selection (n x m 0/1, rows sum to k), when found *)
  int_objective : float;  (* scaled selection objective of [xint] *)
  int_bound : float;  (* certified scaled upper bound on the optimum *)
  proved : bool;
  int_engine : integer_engine;
  int_stats : lp_stats option;
}

(* Branch-and-bound over simplex nodes solves one LP per node, so its
   affordable programs are a fraction of the single-solve envelope;
   the Frank-Wolfe tree's node cost scales with n·m + nnz instead of
   simplex factorizations, buying roughly 4x the variables. *)
let integer_engine_of inst =
  let b = !budget_ref in
  let vars, _, nnz = lp_simp_shape inst in
  if 3 * vars <= b.exact_vars && 3 * nnz <= b.exact_nnz then Bnb_simplex
  else if vars <= 4 * b.exact_vars && nnz <= 4 * b.exact_nnz then Bnb_fw
  else Fw_fractional

let greedy_xint inst =
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  Array.init n (fun u ->
      let row = Array.make m 0.0 in
      Array.iter
        (fun c -> row.(c) <- 1.0)
        (Select.top_k k (Array.init m (fun c -> Instance.pref inst u c)));
      row)

let bnb_budgets ?time_budget_s ?token () =
  let from_token =
    match token with
    | Some t ->
        let r = Supervise.remaining_s t in
        if r = infinity then None else Some r
    | None -> None
  in
  match (time_budget_s, from_token) with
  | Some b, Some r -> Some (Float.min b r)
  | Some b, None -> Some b
  | None, r -> r

let solve_integer_simplex ?time_budget_s ?node_budget ?token inst =
  let problem, x_var = Lp_build.simp_lp inst in
  let n = Instance.n inst and m = Instance.m inst in
  let binary =
    Array.init (n * m) (fun i -> x_var (i / m) (i mod m))
  in
  let options =
    {
      Svgic_lp.Branch_bound.default_options with
      time_budget_s = bnb_budgets ?time_budget_s ?token ();
      node_budget;
    }
  in
  let r = Svgic_lp.Branch_bound.solve ~options problem ~binary in
  let xint =
    Option.map
      (fun x -> Array.init n (fun u -> Array.init m (fun c -> x.(x_var u c))))
      r.Svgic_lp.Branch_bound.incumbent
  in
  {
    xint;
    int_objective = r.Svgic_lp.Branch_bound.objective;
    int_bound = r.Svgic_lp.Branch_bound.bound;
    proved = r.Svgic_lp.Branch_bound.proved_optimal;
    int_engine = Bnb_simplex;
    int_stats =
      Some
        {
          pivots = r.Svgic_lp.Branch_bound.pivots;
          factor =
            {
              zero_factor_stats with
              Revised.refactorizations =
                r.Svgic_lp.Branch_bound.refactorizations;
            };
          nodes = r.Svgic_lp.Branch_bound.nodes;
          fw_iterations = 0;
          max_depth = 0;
          gap_fathoms = 0;
          warm_starts = 0;
        };
  }

let solve_integer_fw ?time_budget_s ?node_budget ?token inst =
  let p = Lp_build.fw_problem inst in
  let g = default_fw_gap_tol inst in
  (* Pick the soft-min temperature so the smoothing slack spends at
     most half the certificate budget; the leaf tolerance spends
     another quarter, leaving the fathoming tolerance at [g]. *)
  let mass = Svgic_lp.Pairwise_fw.weight_mass p in
  let smoothing =
    if mass <= 0.0 then 0.02
    else Float.max 1e-5 (Float.min 0.02 (g /. (2.0 *. Float.log 2.0 *. mass)))
  in
  let options =
    {
      Svgic_lp.Branch_bound.default_options with
      gap_tol = g;
      time_budget_s = bnb_budgets ?time_budget_s ?token ();
      node_budget;
    }
  in
  let fw =
    {
      Svgic_lp.Branch_bound.default_fw_options with
      node_iterations = 400;
      smoothing;
      root_gap_tol = 4.0 *. g;
      leaf_gap_tol = 0.25 *. g;
      gap_decay = 0.6;
    }
  in
  let r = Svgic_lp.Branch_bound.solve_fw ~options ~fw ?token p in
  {
    xint = r.Svgic_lp.Branch_bound.incumbent;
    int_objective = r.Svgic_lp.Branch_bound.objective;
    int_bound = r.Svgic_lp.Branch_bound.bound;
    proved = r.Svgic_lp.Branch_bound.proved_optimal;
    int_engine = Bnb_fw;
    int_stats =
      Some
        {
          pivots = 0;
          factor = zero_factor_stats;
          nodes = r.Svgic_lp.Branch_bound.nodes;
          fw_iterations = r.Svgic_lp.Branch_bound.fw_iterations;
          max_depth = r.Svgic_lp.Branch_bound.max_depth;
          gap_fathoms = r.Svgic_lp.Branch_bound.gap_fathoms;
          warm_starts = r.Svgic_lp.Branch_bound.warm_starts;
        };
  }

(* Beyond every tree's envelope: one certified fractional Frank-Wolfe
   solve. Its [ub + smoothing slack] bounds the fractional optimum,
   hence the integer optimum; the greedy-rounded iterate is the
   integral candidate. Not an optimality proof — [proved] stays
   false. *)
let solve_integer_fractional ?token inst =
  let p = Lp_build.fw_problem inst in
  let g = default_fw_gap_tol inst in
  let smoothing = 0.02 in
  let sol =
    (* Serial: this rung also runs inside the shard fan-out, which owns
       the parallelism. *)
    Svgic_lp.Pairwise_fw.solve ~iterations:2_000 ~smoothing ~gap_tol:g
      ~domains:1 ?token ~swap_steps:true p
  in
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  let xint =
    Array.init n (fun u ->
        let row = Array.make m 0.0 in
        Array.iter
          (fun c -> row.(c) <- 1.0)
          (Select.top_k k (Array.init m (fun c -> sol.Svgic_lp.Pairwise_fw.x.(u).(c))));
        row)
  in
  let slack = Svgic_lp.Pairwise_fw.smoothing_slack ~smoothing p in
  let bound =
    if sol.Svgic_lp.Pairwise_fw.ub = infinity then infinity
    else sol.Svgic_lp.Pairwise_fw.ub +. slack
  in
  {
    xint = Some xint;
    int_objective = Svgic_lp.Pairwise_fw.objective p xint;
    int_bound = bound;
    proved = false;
    int_engine = Fw_fractional;
    int_stats =
      Some
        {
          pivots = 0;
          factor = zero_factor_stats;
          nodes = 1;
          fw_iterations = sol.Svgic_lp.Pairwise_fw.iterations;
          max_depth = 0;
          gap_fathoms = 0;
          warm_starts = 0;
        };
  }

(* The certified-integer ladder: exact B&B -> FW B&B -> certified
   fractional FW -> greedy floor (no certificate). Like [solve]'s
   ladder it only descends on failure, and every rung returns a sound
   [int_bound] — on the floor that is [infinity], honest "no
   certificate". *)
let solve_integer ?time_budget_s ?node_budget ?token inst =
  let floor () =
    let xint = greedy_xint inst in
    {
      xint = Some xint;
      int_objective =
        Svgic_lp.Pairwise_fw.objective (Lp_build.fw_problem inst) xint;
      int_bound = infinity;
      proved = false;
      int_engine = Fw_fractional;
      int_stats = None;
    }
  in
  let fractional () =
    try solve_integer_fractional ?token inst with Failure _ -> floor ()
  in
  match integer_engine_of inst with
  | Fw_fractional -> fractional ()
  | Bnb_fw -> (
      try solve_integer_fw ?time_budget_s ?node_budget ?token inst
      with Failure _ -> fractional ())
  | Bnb_simplex -> (
      try solve_integer_simplex ?time_budget_s ?node_budget ?token inst
      with Failure _ -> (
        try solve_integer_fw ?time_budget_s ?node_budget ?token inst
        with Failure _ -> fractional ()))
