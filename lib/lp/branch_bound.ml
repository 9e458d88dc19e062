module Supervise = Svgic_util.Supervise
module Fault = Svgic_util.Fault

type strategy = Depth_first | Best_first | Hybrid

type branch_rule = Most_fractional | Max_objective

type fw_options = {
  node_iterations : int;
  smoothing : float;
  root_gap_tol : float;
  leaf_gap_tol : float;
  gap_decay : float;
  fw_domains : int option;
}

let default_fw_options =
  {
    node_iterations = 300;
    smoothing = 0.005;
    root_gap_tol = 0.5;
    leaf_gap_tol = 1e-4;
    gap_decay = 0.5;
    fw_domains = Some 1;
  }

type options = {
  strategy : strategy;
  branch_rule : branch_rule;
  time_budget_s : float option;
  node_budget : int option;
  gap_tol : float;
  warm_start : bool;
}

let default_options =
  {
    (* Best-first by default: on the knapsack family of the strategy
       tests it explores ~30% fewer nodes than the old depth-first
       default at equal optima (see the bnb_fw bench note), and it is
       what makes the anytime bound tight under budgets. Depth_first
       stays available for incumbent-early workloads. *)
    strategy = Best_first;
    branch_rule = Most_fractional;
    time_budget_s = None;
    node_budget = None;
    gap_tol = 1e-6;
    warm_start = true;
  }

type result = {
  incumbent : float array option;
  objective : float;
  bound : float;
  nodes : int;
  pivots : int;
  refactorizations : int;
  proved_optimal : bool;
}

let int_eps = 1e-6

(* A node records which binaries are fixed and to what, plus the final
   basis of the parent relaxation. Fixings are pure bound changes
   (lower := 1 or upper := 0), so every node's LP has the same rows
   and variables as the root and the parent basis warm starts the
   child re-solve. *)
type node = {
  fixings : (int * bool) list;
  parent_bound : float;
  parent_basis : Revised_simplex.vbasis option;
}

let apply_fixings base fixings =
  let p = Problem.clone base in
  List.iter
    (fun (v, value) ->
      if value then Problem.set_lower p v 1.0
      else Problem.set_upper p v (Some 0.0))
    fixings;
  p

let pick_branch_var options problem x binary =
  let best = ref (-1) and best_score = ref neg_infinity in
  let objs = Problem.objective problem in
  Array.iter
    (fun v ->
      let frac = x.(v) -. Float.of_int (int_of_float (Float.round x.(v))) in
      let fracness = Float.abs frac in
      if fracness > int_eps then begin
        let score =
          match options.branch_rule with
          | Most_fractional -> -.Float.abs (Float.abs frac -. 0.5)
          | Max_objective -> Float.abs objs.(v)
        in
        if score > !best_score then begin
          best := v;
          best_score := score
        end
      end)
    binary;
  !best

let solve ?(options = default_options) base ~binary =
  Array.iter
    (fun v ->
      match Problem.upper_bound base v with
      | Some u when u <= 1.0 +. int_eps -> ()
      | Some _ | None ->
          invalid_arg "Branch_bound.solve: binary variable without [0,1] bound")
    binary;
  (* Build the CSC view on the base problem before the first clone:
     clones share the cache, so the whole tree reuses one build. *)
  ignore (Problem.csc base);
  let timer = Svgic_util.Timer.start () in
  let out_of_budget nodes =
    (match options.time_budget_s with
    | Some budget -> Svgic_util.Timer.elapsed_s timer > budget
    | None -> false)
    || match options.node_budget with Some b -> nodes >= b | None -> false
  in
  let incumbent = ref None in
  let incumbent_obj = ref neg_infinity in
  (* Frontier: stack for depth-first, max-heap keyed by bound for
     best-first. Hybrid migrates stack entries into the heap once an
     incumbent appears. *)
  let stack : node list ref = ref [] in
  let heap : node Svgic_util.Heap.t = Svgic_util.Heap.create () in
  let push node =
    let best_first =
      match options.strategy with
      | Best_first -> true
      | Depth_first -> false
      | Hybrid -> !incumbent <> None
    in
    if best_first then Svgic_util.Heap.push heap node.parent_bound node
    else stack := node :: !stack
  in
  let pop () =
    match !stack with
    | node :: rest ->
        stack := rest;
        Some node
    | [] -> (
        match Svgic_util.Heap.pop heap with
        | Some (_, node) -> Some node
        | None -> None)
  in
  (* Remaining bound over open nodes (for the proven global bound). *)
  let frontier_bound () =
    let from_stack =
      List.fold_left (fun acc n -> Float.max acc n.parent_bound) neg_infinity !stack
    in
    match Svgic_util.Heap.peek heap with
    | Some (b, _) -> Float.max from_stack b
    | None -> from_stack
  in
  push { fixings = []; parent_bound = infinity; parent_basis = None };
  let nodes = ref 0 in
  let pivots = ref 0 in
  let refactors = ref 0 in
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    if out_of_budget !nodes then begin
      exhausted := true;
      continue := false
    end
    else
      match pop () with
      | None -> continue := false
      | Some node ->
          if node.parent_bound <= !incumbent_obj +. options.gap_tol then ()
          else begin
            incr nodes;
            let problem = apply_fixings base node.fixings in
            let basis = if options.warm_start then node.parent_basis else None in
            match Revised_simplex.solve ?basis problem with
            | Revised_simplex.Infeasible -> ()
            | Revised_simplex.Unbounded ->
                failwith "Branch_bound.solve: unbounded relaxation"
            | Revised_simplex.Timeout _ ->
                (* No supervision token is threaded into node re-solves
                   (the tree has its own time budget), so this cannot
                   fire; if it ever does, treat it as budget
                   exhaustion rather than mis-pruning on a partial
                   bound. *)
                exhausted := true;
                continue := false
            | Revised_simplex.Optimal { x; objective; pivots = p; basis; stats }
              ->
                pivots := !pivots + p;
                refactors := !refactors + stats.Revised_simplex.refactorizations;
                if objective <= !incumbent_obj +. options.gap_tol then ()
                else begin
                  let branch_var = pick_branch_var options base x binary in
                  if branch_var < 0 then begin
                    (* All binaries integral: new incumbent. *)
                    if objective > !incumbent_obj then begin
                      incumbent := Some x;
                      incumbent_obj := objective
                    end
                  end
                  else begin
                    (* Dive on the 1-branch first under depth-first. *)
                    push
                      {
                        fixings = (branch_var, false) :: node.fixings;
                        parent_bound = objective;
                        parent_basis = Some basis;
                      };
                    push
                      {
                        fixings = (branch_var, true) :: node.fixings;
                        parent_bound = objective;
                        parent_basis = Some basis;
                      }
                  end
                end
          end
  done;
  let open_bound = frontier_bound () in
  let bound =
    if !exhausted && open_bound > neg_infinity then open_bound
    else Float.max !incumbent_obj open_bound
  in
  let bound = if bound = neg_infinity then !incumbent_obj else bound in
  {
    incumbent = !incumbent;
    objective = !incumbent_obj;
    bound;
    nodes = !nodes;
    pivots = !pivots;
    refactorizations = !refactors;
    proved_optimal = (not !exhausted) && Float.abs (bound -. !incumbent_obj) <= options.gap_tol *. 10.0;
  }

(* ------------------------------------------------------------------ *)
(* Frank-Wolfe node engine (the Boscia recipe): node relaxations are
   solved by [Pairwise_fw] over the product of capped simplices, the
   parent's best iterate warm starts both children, the per-node gap
   tolerance tightens with depth, and nodes are fathomed on the sound
   certificate [exact objective + smoothed gap + smoothing slack]
   without ever solving a node exactly. *)

type fw_result = {
  incumbent : float array array option;
  objective : float;
  bound : float;
  nodes : int;
  fw_iterations : int;
  gap_fathoms : int;
  warm_starts : int;
  max_depth : int;
  proved_optimal : bool;
  timed_out : bool;
}

type fw_node = {
  fw_fixings : (int * bool) list;  (* flat u*m + c coordinate, value *)
  depth : int;
  parent_ub : float;  (* sound bound inherited from the parent solve *)
  parent_x : float array array option;  (* parent's best iterate (shared) *)
}

(* Integral selection honouring the node fixings: each user keeps her
   fixed-one items and fills the remaining vertex slots with her
   largest free iterate coordinates (ties to the lower index, matching
   the oracle's tie-break). *)
let round_fixed (p : Pairwise_fw.problem) fixed x =
  let m = p.Pairwise_fw.m and k = p.Pairwise_fw.k in
  Array.init p.Pairwise_fw.n (fun u ->
      let row = Array.make m 0.0 in
      let ones = ref 0 in
      for c = 0 to m - 1 do
        if fixed.((u * m) + c) = Pairwise_fw.fx_one then begin
          row.(c) <- 1.0;
          incr ones
        end
      done;
      for _slot = !ones to k - 1 do
        let arg = ref (-1) in
        for c = 0 to m - 1 do
          if
            fixed.((u * m) + c) = Pairwise_fw.fx_free
            && row.(c) = 0.0
            && (!arg < 0 || x.(u).(c) > x.(u).(!arg))
          then arg := c
        done;
        row.(!arg) <- 1.0
      done;
      row)

(* Projection of a parent iterate onto a child's fixings: pin the
   fixed coordinates, clamp the free ones to [0,1], then restore the
   row sum k in one exact pass — scale down when over target, spread
   the deficit proportionally to headroom when under. *)
let project_fixed (p : Pairwise_fw.problem) fixed x =
  let m = p.Pairwise_fw.m and k = p.Pairwise_fw.k in
  Array.init p.Pairwise_fw.n (fun u ->
      let row = Array.make m 0.0 in
      let target = ref (float_of_int k) in
      let mass = ref 0.0 in
      for c = 0 to m - 1 do
        match fixed.((u * m) + c) with
        | f when f = Pairwise_fw.fx_one ->
            row.(c) <- 1.0;
            target := !target -. 1.0
        | f when f = Pairwise_fw.fx_zero -> ()
        | _ ->
            let v = Float.min 1.0 (Float.max 0.0 x.(u).(c)) in
            row.(c) <- v;
            mass := !mass +. v
      done;
      let target = Float.max 0.0 !target in
      if !mass > target +. 1e-12 then begin
        let scale = target /. !mass in
        for c = 0 to m - 1 do
          if fixed.((u * m) + c) = Pairwise_fw.fx_free then
            row.(c) <- row.(c) *. scale
        done
      end
      else if !mass < target -. 1e-12 then begin
        let headroom = ref 0.0 in
        for c = 0 to m - 1 do
          if fixed.((u * m) + c) = Pairwise_fw.fx_free then
            headroom := !headroom +. (1.0 -. row.(c))
        done;
        if !headroom > 0.0 then begin
          let d = (target -. !mass) /. !headroom in
          for c = 0 to m - 1 do
            if fixed.((u * m) + c) = Pairwise_fw.fx_free then
              row.(c) <- row.(c) +. ((1.0 -. row.(c)) *. d)
          done
        end
      end;
      row)

let solve_fw ?(options = default_options) ?(fw = default_fw_options) ?token
    (p : Pairwise_fw.problem) =
  let n = p.Pairwise_fw.n and m = p.Pairwise_fw.m and k = p.Pairwise_fw.k in
  let delta = Pairwise_fw.smoothing_slack ~smoothing:fw.smoothing p in
  (* Effective fathoming tolerance: the node certificate can never be
     tighter than the smoothing slack (a fully fixed leaf still
     carries [objective + delta]), so fathoming below [delta] would
     never terminate. The reported bound stays exact regardless — the
     tolerance only decides when a node is close enough to close. *)
  let ftol = Float.max options.gap_tol (delta +. fw.leaf_gap_tol) in
  let timer = Svgic_util.Timer.start () in
  let out_of_budget nodes =
    (match options.time_budget_s with
    | Some budget -> Svgic_util.Timer.elapsed_s timer > budget
    | None -> false)
    || (match options.node_budget with Some b -> nodes >= b | None -> false)
    || match token with Some t -> Supervise.expired t | None -> false
  in
  let incumbent = ref None in
  let incumbent_obj = ref neg_infinity in
  (* Max node bound over every node closed without branching (fathomed
     or fully fixed): the global bound is the max of this, the open
     frontier and the incumbent. *)
  let closed_ub = ref neg_infinity in
  let stack : fw_node list ref = ref [] in
  let heap : fw_node Svgic_util.Heap.t = Svgic_util.Heap.create () in
  let push node =
    let best_first =
      match options.strategy with
      | Best_first -> true
      | Depth_first -> false
      | Hybrid -> !incumbent <> None
    in
    if best_first then Svgic_util.Heap.push heap node.parent_ub node
    else stack := node :: !stack
  in
  let pop () =
    match !stack with
    | node :: rest ->
        stack := rest;
        Some node
    | [] -> (
        match Svgic_util.Heap.pop heap with
        | Some (_, node) -> Some node
        | None -> None)
  in
  let frontier_bound () =
    let from_stack =
      List.fold_left (fun acc nd -> Float.max acc nd.parent_ub) neg_infinity !stack
    in
    match Svgic_util.Heap.peek heap with
    | Some (b, _) -> Float.max from_stack b
    | None -> from_stack
  in
  push { fw_fixings = []; depth = 0; parent_ub = infinity; parent_x = None };
  let nodes = ref 0 in
  let fw_iters = ref 0 in
  let gap_fathoms = ref 0 in
  let warm_used = ref 0 in
  let deepest = ref 0 in
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    if out_of_budget !nodes then begin
      exhausted := true;
      continue := false
    end
    else
      match pop () with
      | None -> continue := false
      | Some node ->
          if node.parent_ub <= !incumbent_obj +. ftol then begin
            (* Fathomed by the parent's Frank-Wolfe certificate alone:
               the node was never solved. *)
            incr gap_fathoms;
            closed_ub := Float.max !closed_ub node.parent_ub
          end
          else begin
            incr nodes;
            if node.depth > !deepest then deepest := node.depth;
            let fixed = Array.make (n * m) Pairwise_fw.fx_free in
            List.iter
              (fun (i, v) ->
                fixed.(i) <-
                  (if v then Pairwise_fw.fx_one else Pairwise_fw.fx_zero))
              node.fw_fixings;
            (* Fixing feasibility: a child that over-constrains some
               user (more than k forced items, or fewer free
               coordinates than vertex slots left) is an empty region
               and contributes nothing to the bound. *)
            let feasible = ref true in
            for u = 0 to n - 1 do
              let ones = ref 0 and zeros = ref 0 in
              for c = 0 to m - 1 do
                let f = fixed.((u * m) + c) in
                if f = Pairwise_fw.fx_one then incr ones
                else if f = Pairwise_fw.fx_zero then incr zeros
              done;
              if !ones > k || m - !zeros < k then feasible := false
            done;
            if !feasible then begin
              (* Boscia's fw_dual_gap_limit schedule: loose at the
                 root (the bound only steers node order), geometric
                 tightening toward the leaves (where fathoming needs
                 precision). *)
              let tol =
                Float.max fw.leaf_gap_tol
                  (fw.root_gap_tol *. (fw.gap_decay ** float_of_int node.depth))
              in
              (* Incumbent-aware early stop: once some iterate proves
                 the node cannot beat the incumbent by more than the
                 fathoming tolerance, stop iterating — the certificate
                 is already tight enough to fathom on. *)
              let ub_target =
                if !incumbent_obj > neg_infinity then
                  Some (!incumbent_obj +. ftol -. delta)
                else None
              in
              let warm_x =
                match node.parent_x with
                | Some px when options.warm_start ->
                    Some (project_fixed p fixed px)
                | Some _ | None -> None
              in
              let injected =
                if Fault.enabled () then
                  Fault.at ~site:"bnb_fw.node" ~index:!nodes
                else None
              in
              let attempt ~inject ~x0 =
                (match inject with
                | Some Fault.Crash ->
                    raise
                      (Fault.Injected (Printf.sprintf "bnb_fw.node[%d]" !nodes))
                | Some _ | None -> ());
                let x0 =
                  match (inject, x0) with
                  | Some Fault.Nan, Some x ->
                      (* Poison a copy: the engine's warm-start screen
                         must catch it like a genuine corruption. *)
                      let x = Array.map Array.copy x in
                      if n > 0 && m > 0 then x.(0).(0) <- Float.nan;
                      Some x
                  | _ -> x0
                in
                let tok =
                  match inject with
                  | Some Fault.Timeout -> Some (Supervise.expired_token ())
                  | Some _ | None -> token
                in
                Pairwise_fw.solve ~iterations:fw.node_iterations
                  ~smoothing:fw.smoothing ~gap_tol:tol ?ub_target ?x0 ~fixed
                  ?domains:fw.fw_domains ?token:tok p
              in
              let sol, warmed =
                match attempt ~inject:injected ~x0:warm_x with
                | _ when injected = Some Fault.Timeout ->
                    (* An injected expired token doesn't raise — it
                       yields a degenerate certificate-free solve.
                       Recover it like the raising kinds: one cold,
                       injection-free retry. *)
                    (attempt ~inject:None ~x0:None, false)
                | s -> (s, warm_x <> None)
                | exception (Fault.Injected _ | Failure _) ->
                    (* Recovery rung: one cold, injection-free retry.
                       A second failure is a data-level problem and
                       escapes to the caller's ladder. *)
                    (attempt ~inject:None ~x0:None, false)
              in
              if warmed then incr warm_used;
              fw_iters := !fw_iters + sol.Pairwise_fw.iterations;
              let node_ub =
                if sol.Pairwise_fw.ub = infinity then node.parent_ub
                else Float.min node.parent_ub (sol.Pairwise_fw.ub +. delta)
              in
              (* Dive rounding: every solved node donates an integral
                 candidate, so incumbents appear long before any leaf
                 is reached and the gap certificate tightens early. *)
              let xint = round_fixed p fixed sol.Pairwise_fw.x in
              let cand = Pairwise_fw.objective p xint in
              if cand > !incumbent_obj then begin
                incumbent := Some xint;
                incumbent_obj := cand
              end;
              if node_ub <= !incumbent_obj +. ftol then begin
                incr gap_fathoms;
                closed_ub := Float.max !closed_ub node_ub
              end
              else begin
                let x = sol.Pairwise_fw.x in
                let bv = ref (-1) and bscore = ref neg_infinity in
                let first_free = ref (-1) in
                for i = 0 to (n * m) - 1 do
                  if fixed.(i) = Pairwise_fw.fx_free then begin
                    if !first_free < 0 then first_free := i;
                    let v = x.(i / m).(i mod m) in
                    let frac = Float.abs (v -. Float.round v) in
                    if frac > int_eps then begin
                      let score =
                        match options.branch_rule with
                        | Most_fractional -> frac
                        | Max_objective ->
                            Float.abs p.Pairwise_fw.linear.(i / m).(i mod m)
                      in
                      if score > !bscore then begin
                        bv := i;
                        bscore := score
                      end
                    end
                  end
                done;
                (* An integral-but-unfathomed relaxation still branches
                   (on any free coordinate): the certificate may simply
                   be too loose at this depth, and every fixing step
                   strictly shrinks the free set, so the tree stays
                   finite. *)
                let bv = if !bv >= 0 then !bv else !first_free in
                if bv < 0 then
                  (* Fully fixed leaf: closed at its certificate. *)
                  closed_ub := Float.max !closed_ub node_ub
                else begin
                  let child value =
                    {
                      fw_fixings = (bv, value) :: node.fw_fixings;
                      depth = node.depth + 1;
                      parent_ub = node_ub;
                      parent_x = Some sol.Pairwise_fw.x;
                    }
                  in
                  (* Dive on the 1-branch first under depth-first. *)
                  push (child false);
                  push (child true)
                end
              end
            end
          end
  done;
  let open_bound = frontier_bound () in
  let bound = Float.max (Float.max !incumbent_obj !closed_ub) open_bound in
  let bound = if bound = neg_infinity then !incumbent_obj else bound in
  {
    incumbent = !incumbent;
    objective = !incumbent_obj;
    bound;
    nodes = !nodes;
    fw_iterations = !fw_iters;
    gap_fathoms = !gap_fathoms;
    warm_starts = !warm_used;
    max_depth = !deepest;
    proved_optimal =
      (not !exhausted)
      && !incumbent <> None
      && bound -. !incumbent_obj <= ftol +. 1e-12;
    timed_out = !exhausted;
  }
