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

type lp_stats = { pivots : int; factor : Revised.stats }

type t = {
  xbar : float array array;
  scaled_objective : float;
  scaled_upper : float;
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
      (x, objective, Some basis, Some { pivots; factor = stats }, true)
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
        Some { pivots = p.Revised.pivots; factor = p.Revised.stats },
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
  { xbar; scaled_objective = objective; scaled_upper = objective; basis;
    fw_gap = None; degraded = not complete; lp_stats }

let frank_wolfe ~iterations ~smoothing ~gap_tol ~domains ?token inst =
  let problem = Lp_build.fw_problem inst in
  let solution =
    Svgic_lp.Pairwise_fw.solve ~iterations ~smoothing ?gap_tol ?domains ?token
      ~swap_steps:true problem
  in
  {
    xbar = solution.x;
    scaled_objective = solution.objective;
    (* Corollary 4.2's certificate: [ub] bounds the smoothed optimum,
       and the smoothing slack the gap to the exact one. *)
    scaled_upper =
      solution.ub +. Svgic_lp.Pairwise_fw.smoothing_slack ~smoothing problem;
    basis = None;
    fw_gap = Some solution.gap;
    degraded = solution.timed_out;
    lp_stats = None;
  }

(* Bottom rung of the ladder: each user's top-k preferred items as an
   integral (hence feasible) relaxation point. Needs no LP, no RNG and
   no social data, so it cannot fail and costs O(n·m log m); its
   scaled objective is evaluated exactly so the lower bracket stays
   true, and it certifies no upper. *)
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
  { xbar; scaled_objective = objective; scaled_upper = infinity; basis = None;
    fw_gap = None; degraded = true; lp_stats = None }

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
      frank_wolfe ~iterations:2_000 ~smoothing:0.02
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
      try frank_wolfe ~iterations ~smoothing ~gap_tol ~domains ?token inst
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
  { xbar; scaled_objective = objective; scaled_upper = objective; basis;
    fw_gap = None; degraded = false; lp_stats }

let upper_bound inst r =
  if r.degraded then infinity
  else Instance.objective_scale inst *. r.scaled_upper

let factor inst r u c = r.xbar.(u).(c) /. float_of_int (Instance.k inst)
