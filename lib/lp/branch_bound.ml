type strategy = Depth_first | Best_first | Hybrid

type branch_rule = Most_fractional | Max_objective

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
       default at equal optima (see the simplex_bb bench note), and it is
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
