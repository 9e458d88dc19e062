(* Sparse revised simplex with bounded variables.

   Internal form: every constraint row [i] becomes an equality
   [a_i . x + w_i = b_i] with a logical variable [w_i] whose bounds
   encode the row sense (Le: [0, inf), Ge: (-inf, 0], Eq: [0, 0]).
   Structural bounds [l <= x <= u] are handled natively by the ratio
   test (nonbasic variables rest at a bound and may flip to the
   opposite bound without a basis change), so no bound is ever
   materialized as a row.

   The basis inverse lives in a [Factor.t] behind the FTRAN/BTRAN
   entry points: a Markowitz-ordered sparse LU with threshold partial
   pivoting. Basis changes between refactorizations are absorbed by
   Forrest–Tomlin updates, and [Factor.should_refactor] decides when
   the update file has outgrown the base factors or an update failed
   its stability test. Phase 1 is the
   composite method: minimize the total bound violation of the basic
   variables, with piecewise costs that follow the current iterate, so
   it works unchanged from any (possibly warm-started, possibly
   infeasible) basis. An iteration does only the work its inputs
   require: rows are reclassified only where a basic value or column
   moved, phase costs are patched rather than rewritten, and the duals
   are reused across a bound flip that changed no phase cost (see
   "feasibility classes" below). None of it changes a floating-point
   operation or its order.

   Supervision (DESIGN.md §5): the caller may pass a [Supervise.token];
   it is polled once per iteration, right after the feasibility
   classification, so a deadline is honoured within one pivot and the
   [Timeout] partial's [feasible] flag reflects the iterate actually
   returned. Numerical health is guarded at two levels — problem data
   is screened for NaN/Inf before any algebra, and every basic value
   is re-screened whenever it moves; a non-finite iterate triggers a
   refactorization, and only if a *fresh* factorization still produces
   garbage does the solve escalate through the recovery ladder
   (cold restart under Bland's rule, then one perturbed-objective
   retry) before giving up.

   Allocation discipline: a solve's working arrays and its [Factor.t]
   come from a per-domain workspace (see [workspace] below), so a
   domain that solves many small programs — a serving tick re-solving
   its touched shards — reuses one set of arrays instead of promoting
   a fresh set per solve into the major heap. What a solve returns is
   always freshly allocated at the program's exact size. *)

module Supervise = Svgic_util.Supervise

type vbasis = { stat0 : int array }
(* Per-column status snapshot: 0 = basic, 1 = at lower bound,
   2 = at upper bound; length = structural + logical columns. *)

type stats = {
  refactorizations : int;
  fill_nnz : int;
  basis_nnz : int;
  updates : int;
  update_nnz : int;
  factor_s : float;
}

type solution = {
  x : float array;
  objective : float;
  pivots : int;
  basis : vbasis;
  stats : stats;
}

type partial = {
  x : float array;
  objective : float;
  pivots : int;
  basis : vbasis;
  feasible : bool;
  stats : stats;
}

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Timeout of partial

let vbasis_entries (b : vbasis) = Array.copy b.stat0
let vbasis_of_entries a = { stat0 = Array.copy a }

let dtol = 1e-9 (* reduced-cost (dual) tolerance *)
let ztol = 1e-9 (* pivot-element tolerance *)
let ftol = 1e-7 (* primal feasibility classification tolerance *)

(* ---------------- workspace --------------------------------------- *)

(* The arrays behind [state], plus the factor, owned by one domain and
   reused by every solve that runs there. A solve takes it for its
   whole duration (every rung of the recovery ladder) and releases it
   on every exit, exceptions included; a solve that finds it taken — a
   re-entrant solve in the same domain — works on private arrays
   instead. Each attempt re-arms it in O(program): only the first [m]
   rows and [nv + m] columns are rewritten, and every invariant the
   pivot loop relies on (the all-zero [w], the factor's pattern marks,
   its per-solve counters, the classification flags below) is restored
   there. *)
type workspace = {
  mutable busy : bool;
  mutable ws_lo : float array;
  mutable ws_up : float array;
  mutable ws_cost : float array;
  mutable ws_stat : int array;
  mutable ws_pos : int array;
  mutable ws_basis : int array;
  mutable ws_xb : float array;
  mutable ws_row_of : int array;
  mutable ws_tmpb : int array;
  mutable ws_w : float array;
  mutable ws_wnz : int array;
  mutable ws_y : float array;
  mutable ws_cb : float array;
  mutable ws_cls : int array;
  ws_f : Factor.t;
  (* Per-attempt classification state (see "feasibility classes"). *)
  mutable ninf : int; (* rows with a nonzero class *)
  mutable healthy : bool; (* every basic value finite when last read *)
  mutable cb_phase1 : bool; (* [cb] holds phase-1 classes, not costs *)
  mutable y_ok : bool; (* [y] solves the current basis and [cb] *)
}

(* Per-attempt view of a workspace: the arrays may be longer than the
   program (the workspace is sized to the largest program its domain
   has solved); only the first [m] / [ncols] cells are used. *)
type state = {
  m : int; (* rows = basis size *)
  nv : int; (* structural columns *)
  ncols : int; (* nv + m *)
  csc : Problem.csc;
  lo : float array; (* per column, may be neg_infinity *)
  up : float array; (* per column, may be infinity *)
  cost : float array; (* phase-2 cost per column (logicals 0) *)
  basis : int array; (* position -> column *)
  stat : int array; (* column -> 0 basic / 1 lower / 2 upper *)
  pos : int array; (* column -> basis position, -1 when nonbasic *)
  xb : float array; (* basic value per position *)
  f : Factor.t; (* the basis inverse *)
  w : float array; (* FTRAN scratch; kept all-zero between pivots *)
  wnz : int array; (* nonzero pattern of [w] *)
  y : float array; (* duals B^-T cb, valid while [y_ok] *)
  cb : float array; (* phase cost per basis row *)
  cls : int array; (* phase-1 class per row: +1 below, -1 above, 0 inside *)
  ws : workspace; (* owner of the arrays, and of the per-attempt flags *)
}

let new_workspace ~m ~ncols =
  let mm = max 1 m in
  {
    busy = false;
    ws_lo = Array.make ncols 0.0;
    ws_up = Array.make ncols 0.0;
    ws_cost = Array.make ncols 0.0;
    ws_stat = Array.make ncols 0;
    ws_pos = Array.make ncols 0;
    ws_basis = Array.make mm 0;
    ws_xb = Array.make mm 0.0;
    ws_row_of = Array.make mm 0;
    ws_tmpb = Array.make mm 0;
    ws_w = Array.make mm 0.0;
    ws_wnz = Array.make mm 0;
    ws_y = Array.make mm 0.0;
    ws_cb = Array.make mm 0.0;
    ws_cls = Array.make mm 0;
    ws_f = Factor.create ~m;
    ninf = 0;
    healthy = true;
    cb_phase1 = true;
    y_ok = false;
  }

(* Grow to hold [m] rows and [ncols] columns (geometrically, so a
   domain whose programs creep upward reallocates rarely). *)
let reserve ws ~m ~ncols =
  if ncols > Array.length ws.ws_lo then begin
    let cap = max ncols (2 * Array.length ws.ws_lo) in
    ws.ws_lo <- Array.make cap 0.0;
    ws.ws_up <- Array.make cap 0.0;
    ws.ws_cost <- Array.make cap 0.0;
    ws.ws_stat <- Array.make cap 0;
    ws.ws_pos <- Array.make cap 0
  end;
  if m > Array.length ws.ws_basis then begin
    let cap = max m (2 * Array.length ws.ws_basis) in
    ws.ws_basis <- Array.make cap 0;
    ws.ws_xb <- Array.make cap 0.0;
    ws.ws_row_of <- Array.make cap 0;
    ws.ws_tmpb <- Array.make cap 0;
    ws.ws_w <- Array.make cap 0.0;
    ws.ws_wnz <- Array.make cap 0;
    ws.ws_y <- Array.make cap 0.0;
    ws.ws_cb <- Array.make cap 0.0;
    ws.ws_cls <- Array.make cap 0
  end

let domain_workspace =
  Domain.DLS.new_key (fun () -> new_workspace ~m:0 ~ncols:0)

(* Run [f] on this domain's workspace, or on private arrays sized to
   [problem] when a solve in this domain already holds it. *)
let with_workspace problem f =
  let ws = Domain.DLS.get domain_workspace in
  if ws.busy then
    f
      (new_workspace ~m:(Problem.num_rows problem)
         ~ncols:(Problem.num_vars problem + Problem.num_rows problem))
  else begin
    ws.busy <- true;
    Fun.protect ~finally:(fun () -> ws.busy <- false) (fun () -> f ws)
  end

(* ---------------- factorization ----------------------------------- *)

(* Rebuild the base factors from the current basis *set*; basis
   positions (row assignments) are rewritten from the factorization's
   pivot order. Raises [Factor.Singular] if the set is not a basis. *)
let refactor st =
  let c = st.csc in
  let row_of = st.ws.ws_row_of and tmpb = st.ws.ws_tmpb in
  Factor.refactorize st.f
    ~nnz:(fun slot ->
      let j = st.basis.(slot) in
      if j < st.nv then c.Problem.col_ptr.(j + 1) - c.Problem.col_ptr.(j)
      else 1)
    ~load:(fun slot idx vals ->
      let j = st.basis.(slot) in
      if j < st.nv then begin
        let p0 = c.Problem.col_ptr.(j) in
        let n = c.Problem.col_ptr.(j + 1) - p0 in
        for p = 0 to n - 1 do
          idx.(p) <- c.Problem.row_ind.(p0 + p);
          vals.(p) <- c.Problem.values.(p0 + p)
        done;
        n
      end
      else begin
        idx.(0) <- j - st.nv;
        vals.(0) <- 1.0;
        1
      end)
    ~row_of;
  Array.blit st.basis 0 tmpb 0 st.m;
  for slot = 0 to st.m - 1 do
    st.basis.(row_of.(slot)) <- tmpb.(slot)
  done;
  for r = 0 to st.m - 1 do
    st.pos.(st.basis.(r)) <- r
  done

let ftran st w = Factor.ftran st.f w
let btran st y = Factor.btran st.f y

(* ---------------- columns ----------------------------------------- *)

(* Scatter column [j] (structural or logical) into the all-zero [w],
   recording the touched rows in [wnz]. A row whose terms cancel to
   exact zero may stay in (or re-enter) the pattern; that is harmless
   because every consumer re-checks the value, and
   [Factor.ftran_pattern] dedups its input. *)
let scatter_col_pattern st j w wnz =
  if j < st.nv then begin
    let c = st.csc in
    let n = ref 0 in
    for p = c.Problem.col_ptr.(j) to c.Problem.col_ptr.(j + 1) - 1 do
      let v = c.Problem.values.(p) in
      if v <> 0.0 then begin
        let r = c.Problem.row_ind.(p) in
        if w.(r) = 0.0 then begin
          wnz.(!n) <- r;
          incr n
        end;
        w.(r) <- w.(r) +. v
      end
    done;
    !n
  end
  else begin
    w.(j - st.nv) <- 1.0;
    wnz.(0) <- j - st.nv;
    1
  end

(* Pricing calls this once per column per pivot. It is inlined so its
   float result stays unboxed: out of line, every call boxed it, two
   words per priced column per pivot. *)
let[@inline] dot_col st j y =
  if j < st.nv then begin
    let c = st.csc in
    let acc = ref 0.0 in
    for p = c.Problem.col_ptr.(j) to c.Problem.col_ptr.(j + 1) - 1 do
      acc := !acc +. (c.Problem.values.(p) *. y.(c.Problem.row_ind.(p)))
    done;
    !acc
  end
  else y.(j - st.nv)

(* Resting value of a nonbasic column: the bound its status names,
   falling back to the finite one (every column has at least one).
   Inlined for the same reason as [dot_col]. *)
let[@inline] nbval st j =
  if st.stat.(j) = 2 then
    if st.up.(j) < infinity then st.up.(j) else st.lo.(j)
  else if st.lo.(j) > neg_infinity then st.lo.(j)
  else st.up.(j)

(* Recompute the basic values exactly: xb = B^-1 (b - N x_N). *)
let recompute_xb st =
  let w = st.w in
  Array.fill w 0 st.m 0.0;
  for r = 0 to st.m - 1 do
    w.(r) <- st.csc.Problem.row_rhs.(r)
  done;
  for j = 0 to st.ncols - 1 do
    if st.stat.(j) <> 0 then begin
      let v = nbval st j in
      if v <> 0.0 then
        if j < st.nv then begin
          let c = st.csc in
          for p = c.Problem.col_ptr.(j) to c.Problem.col_ptr.(j + 1) - 1 do
            w.(c.Problem.row_ind.(p)) <-
              w.(c.Problem.row_ind.(p)) -. (c.Problem.values.(p) *. v)
          done
        end
        else w.(j - st.nv) <- w.(j - st.nv) -. v
    end
  done;
  ftran st w;
  Array.blit w 0 st.xb 0 st.m;
  Array.fill w 0 st.m 0.0

(* ---------------- setup ------------------------------------------- *)

(* Input-data health screen: one NaN coefficient would otherwise
   surface many pivots later as an inexplicable breakdown — or worse,
   as a silently wrong verdict, since NaN compares false against every
   tolerance. Infinities are equally fatal in the matrix, objective
   and rhs; bounds are allowed their usual infinities but not NaN. *)
let all_finite a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite a.(i)) then ok := false
  done;
  !ok

let screen_problem problem =
  let csc = Problem.csc problem in
  let ok =
    ref
      (all_finite (Problem.objective problem)
      && all_finite csc.Problem.values
      && all_finite csc.Problem.row_rhs)
  in
  for j = 0 to Problem.num_vars problem - 1 do
    if Float.is_nan (Problem.lower_bound problem j) then ok := false;
    match Problem.upper_bound problem j with
    | Some u when Float.is_nan u -> ok := false
    | Some _ | None -> ()
  done;
  if not !ok then failwith "Revised_simplex.solve: non-finite problem data"

(* Re-arm [ws] for [problem]. Bounds and costs are written for every
   column; basis, status and positions are written by the install
   that follows, whose [recompute_xb] also zeroes [w] (an attempt that
   ended in an exception may have left an FTRANed column there). *)
let build ws ?refactor_every problem =
  let nv = Problem.num_vars problem in
  let csc = Problem.csc problem in
  let m = csc.Problem.c_nr in
  let ncols = nv + m in
  reserve ws ~m ~ncols;
  let lo = ws.ws_lo and up = ws.ws_up and cost = ws.ws_cost in
  let objs = Problem.objective problem in
  Array.blit objs 0 cost 0 nv;
  Problem.bounds_into problem ~lo ~up;
  for r = 0 to m - 1 do
    let j = nv + r in
    cost.(j) <- 0.0;
    match csc.Problem.row_cmp.(r) with
    | Problem.Le ->
        (* [0, inf) *)
        lo.(j) <- 0.0;
        up.(j) <- infinity
    | Problem.Ge ->
        lo.(j) <- neg_infinity;
        up.(j) <- 0.0
    | Problem.Eq ->
        (* [0, 0] *)
        lo.(j) <- 0.0;
        up.(j) <- 0.0
  done;
  Factor.reset ws.ws_f ~m;
  Factor.set_refactor_every ws.ws_f refactor_every;
  {
    m;
    nv;
    ncols;
    csc;
    lo;
    up;
    cost;
    basis = ws.ws_basis;
    stat = ws.ws_stat;
    pos = ws.ws_pos;
    xb = ws.ws_xb;
    f = ws.ws_f;
    w = ws.ws_w;
    wnz = ws.ws_wnz;
    y = ws.ws_y;
    cb = ws.ws_cb;
    cls = ws.ws_cls;
    ws;
  }

let solver_stats st =
  let s = Factor.stats st.f in
  {
    refactorizations = s.Factor.refactorizations;
    fill_nnz = s.Factor.fill_nnz;
    basis_nnz = s.Factor.basis_nnz;
    updates = s.Factor.updates;
    update_nnz = s.Factor.update_nnz;
    factor_s = s.Factor.factor_s;
  }

(* All-logical starting basis; structural columns at their finite
   (preferring lower) bound. *)
let install_cold st =
  for j = 0 to st.ncols - 1 do
    st.pos.(j) <- -1;
    st.stat.(j) <- (if st.lo.(j) > neg_infinity then 1 else 2)
  done;
  for r = 0 to st.m - 1 do
    let j = st.nv + r in
    st.basis.(r) <- j;
    st.stat.(j) <- 0;
    st.pos.(j) <- r
  done;
  Factor.reset_identity st.f;
  recompute_xb st

(* Adopt a prior basis snapshot if its shape matches and its basic set
   is actually invertible; any mismatch falls back to a cold start. *)
let install_warm st (b : vbasis) =
  if Array.length b.stat0 <> st.ncols then (install_cold st; false)
  else begin
    let nbasic = ref 0 in
    for j = 0 to st.ncols - 1 do
      if b.stat0.(j) = 0 then incr nbasic
    done;
    if !nbasic <> st.m then (install_cold st; false)
    else begin
      (* Basic columns in ascending order fill positions 0..m-1. *)
      let r = ref 0 in
      for j = 0 to st.ncols - 1 do
        if b.stat0.(j) = 0 then begin
          st.basis.(!r) <- j;
          incr r
        end
      done;
      for j = 0 to st.ncols - 1 do
        st.pos.(j) <- -1;
        st.stat.(j) <-
          (match b.stat0.(j) with
          | 0 -> 0
          | 1 when st.lo.(j) > neg_infinity -> 1
          | 2 when st.up.(j) < infinity -> 2
          | 1 -> 2
          | _ -> 1)
      done;
      try
        refactor st;
        recompute_xb st;
        true
      with Factor.Singular ->
        install_cold st;
        false
    end
  end

(* ---------------- feasibility classes ----------------------------- *)

(* A row's class reads only its basic value and its basic column's
   bounds, so the pivot loop keeps [cls], [ninf] and [cb] up to date by
   reclassifying just the rows whose value or column moved: the FTRAN
   pattern rows with a nonzero entry (the pivot row is one of them).
   Install and refresh recompute [xb] and permute the basis positions,
   so they run the full pass instead. *)

(* +1 below the lower bound, -1 above the upper bound, 0 inside (a NaN
   reads as inside; the health guard catches it). *)
let[@inline] row_class st r =
  let j = st.basis.(r) in
  let v = st.xb.(r) in
  if v < st.lo.(j) -. ftol then 1 else if v > st.up.(j) +. ftol then -1 else 0

(* Rewrite every row's phase cost: the class in phase 1 (the gradient
   of the total bound violation), the column cost in phase 2. *)
let fill_phase_costs st phase1 =
  if phase1 then
    for r = 0 to st.m - 1 do
      st.cb.(r) <- Float.of_int st.cls.(r)
    done
  else
    for r = 0 to st.m - 1 do
      st.cb.(r) <- st.cost.(st.basis.(r))
    done;
  st.ws.cb_phase1 <- phase1;
  st.ws.y_ok <- false

(* The full pass: health, classes and phase costs of every row. *)
let rescan st =
  let ninf = ref 0 in
  st.ws.healthy <- true;
  for r = 0 to st.m - 1 do
    let v = st.xb.(r) in
    if v -. v <> 0.0 then st.ws.healthy <- false;
    let c = row_class st r in
    st.cls.(r) <- c;
    if c <> 0 then incr ninf
  done;
  st.ws.ninf <- !ninf;
  fill_phase_costs st (!ninf > 0)

(* Row [r]'s basic value or column moved. A class change moves [cb]
   in phase 1 and the phase itself in phase 2; either way [y] is
   stale. *)
let[@inline] reclassify st r =
  let v = st.xb.(r) in
  if v -. v <> 0.0 then st.ws.healthy <- false
  else begin
    let c = row_class st r in
    let old = st.cls.(r) in
    if c <> old then begin
      st.cls.(r) <- c;
      st.ws.ninf <- st.ws.ninf + abs c - abs old;
      if st.ws.cb_phase1 then st.cb.(r) <- Float.of_int c;
      st.ws.y_ok <- false
    end
  end

(* After a flip or a pivot: reclassify the rows it moved, the first
   [nw] pattern rows with a nonzero [w] entry (after a pivot the pivot
   row is one of them, [|w_r| > ztol]), and restore the all-zero [w]
   before any refresh can reuse it densely. *)
let settle st nw =
  for k = 0 to nw - 1 do
    let r = st.wnz.(k) in
    if st.w.(r) <> 0.0 then reclassify st r;
    st.w.(r) <- 0.0
  done

(* Rebuild the factorization from the current basis; a (rare,
   numerical) singular rebuild restarts from the all-logical basis —
   progress is lost but phase 1 recovers correctness. *)
let refresh st =
  (try
     refactor st;
     recompute_xb st
   with Factor.Singular -> install_cold st);
  rescan st

(* ---------------- main loop --------------------------------------- *)

exception Unbounded_exn
exception Breakdown
exception Timeout_exn of bool (* payload: was the iterate feasible? *)

type verdict = V_done | V_infeasible | V_unbounded | V_timeout of bool

(* Structural solution readout: basics from xb, nonbasics from their
   resting bound. Shared by the optimal and timeout exits. *)
let extract_x st =
  let x = Array.make st.nv 0.0 in
  for j = 0 to st.nv - 1 do
    x.(j) <- (if st.stat.(j) = 0 then st.xb.(st.pos.(j)) else nbval st j)
  done;
  x

(* One full simplex run: cold or warm install, then pivot until a
   verdict. Raises [Breakdown] when the numerics degrade beyond what a
   fresh factorization repairs — the retry ladder in [solve] owns
   recovery. [force_bland] pins pricing and the ratio test to Bland's
   rule from the first pivot (the anti-cycling restart rung). *)
let attempt ws ?basis ?(force_bland = false) ?refactor_every ~max_pivots ~token
    problem =
  let st = build ws ?refactor_every problem in
  (* Bound sanity: an empty box is infeasible before any algebra. *)
  let box_ok = ref true in
  for j = 0 to st.ncols - 1 do
    if st.lo.(j) > st.up.(j) +. 1e-9 then box_ok := false
  done;
  if not !box_ok then Infeasible
  else begin
    (match basis with
    | Some b -> ignore (install_warm st b)
    | None -> install_cold st);
    rescan st;
    let pivots = ref 0 in
    (* [clean] = the factorization and xb were just rebuilt exactly; a
       terminal verdict (optimal / infeasible) is only trusted when
       clean, otherwise we refresh and re-examine. *)
    let clean = ref true in
    (* Stall detector: pivots and bound flips whose step fails to move
       the objective (degenerate steps, [t * |d| ~ 0]) count toward
       the Bland trigger; any real step resets it. This replaces the
       seed's explicit merit recomputation — an O(ncols) pass per
       iteration — with the same signal read off the step itself. *)
    let stall = ref 0 in
    let stall_limit = 100 + ((st.m + st.ncols) / 4) in
    let prev_phase1 = ref true in
    (* Sectional Dantzig pricing: scan a window of columns from a
       roving cursor and enter the best favorable one, falling through
       to the next window (and eventually a full wrap-around) only
       while nothing favorable has been seen. An optimal verdict still
       requires the full scan to come up empty, so verdicts are exactly
       as trustworthy as under full pricing — the window only changes
       which favorable column enters first. Small programs (ncols
       within one window) get classic full Dantzig pricing. *)
    let section = max 512 ((st.ncols + 15) / 16) in
    let price_cursor = ref 0 in
    let verdict : verdict option ref = ref None in
    (try
       while !verdict = None do
         (* The health guard: a non-finite basic value (the
            [v -. v <> 0.0] test catches NaN and both infinities in one
            branch) means the factorization has drifted into garbage.
            A refresh usually repairs it; if a *clean* factorization
            still produces non-finite values the program itself is
            numerically hostile and the retry ladder takes over. Only
            the rows that moved are re-read: the others were finite
            when last read and have not changed since. *)
         if not st.ws.healthy then begin
           if !clean then raise Breakdown;
           refresh st;
           clean := true
         end
         else begin
           let phase1 = st.ws.ninf > 0 in
           (* Deadline poll: after the classification, so the
              [feasible] flag of the partial describes the iterate we
              actually return. *)
           if Supervise.expired token then raise (Timeout_exn (not phase1));
           if phase1 <> st.ws.cb_phase1 then fill_phase_costs st phase1;
           if phase1 <> !prev_phase1 then begin
             (* Phase switch changes the objective; give the new phase
                a fresh stall budget. *)
             prev_phase1 := phase1;
             stall := 0
           end;
           let bland = force_bland || !stall > stall_limit in
           (* BTRAN + pricing. A bound flip that moved no phase cost
              leaves the basis, the factor and [cb] as they were, so
              the duals of the last BTRAN are still exact. *)
           if not st.ws.y_ok then begin
             Array.blit st.cb 0 st.y 0 st.m;
             btran st st.y;
             st.ws.y_ok <- true
           end;
           let enter = ref (-1) and enter_d = ref 0.0 in
           if bland then
             (* Bland's rule: lowest favorable index, in index order —
                the anti-cycling guarantee needs the full scan. *)
             (try
                for j = 0 to st.ncols - 1 do
                  let s = st.stat.(j) in
                  if s <> 0 && st.up.(j) -. st.lo.(j) > 1e-12 then begin
                    let cj = if phase1 then 0.0 else st.cost.(j) in
                    let d = cj -. dot_col st j st.y in
                    if (s = 1 && d > dtol) || (s = 2 && d < -.dtol) then begin
                      enter := j;
                      enter_d := d;
                      raise Exit
                    end
                  end
                done
              with Exit -> ())
           else begin
             let best_score = ref dtol in
             let scanned = ref 0 in
             let window = ref 0 in
             let j = ref !price_cursor in
             if !j >= st.ncols then j := 0;
             while !scanned < st.ncols && (!enter < 0 || !window < section) do
               let jj = !j in
               let s = st.stat.(jj) in
               if s <> 0 && st.up.(jj) -. st.lo.(jj) > 1e-12 then begin
                 let cj = if phase1 then 0.0 else st.cost.(jj) in
                 let d = cj -. dot_col st jj st.y in
                 if
                   ((s = 1 && d > dtol) || (s = 2 && d < -.dtol))
                   && Float.abs d > !best_score
                 then begin
                   enter := jj;
                   enter_d := d;
                   best_score := Float.abs d
                 end
               end;
               incr scanned;
               incr window;
               if !window >= section && !enter < 0 then window := 0;
               j := jj + 1;
               if !j >= st.ncols then j := 0
             done;
             price_cursor := !j
           end;
           if !enter < 0 then begin
             (* No favorable column: the verdict is only as good as the
                factorization it was computed with. *)
             if !clean then
               verdict := Some (if phase1 then V_infeasible else V_done)
             else begin
               refresh st;
               clean := true
             end
           end
           else begin
             let q = !enter in
             let sigma = if st.stat.(q) = 1 then 1.0 else -1.0 in
             let w = st.w in
             let wnz = st.wnz in
             (* [w] is all-zero here (every consumer clears its own
                pattern). The entering column is scattered and FTRANed
                with its nonzero pattern tracked, so the ratio test,
                the basics update and the factorization update all run
                over the few touched rows instead of every basis row —
                the entering columns of these LPs are hypersparse
                (tens of nonzeros against tens of thousands of rows). *)
             let nw = ref (scatter_col_pattern st q w wnz) in
             nw := Factor.ftran_pattern st.f w wnz !nw;
             (* Ratio test over basics, plus the entering bound flip.
                In phase 1 a basic already outside a bound blocks only
                when moving back toward feasibility (at the violated
                bound); moving further out is charged by the phase-1
                costs instead of blocked. *)
             let flip_t = st.up.(q) -. st.lo.(q) in
             let best_r = ref (-1)
             and best_t = ref (if flip_t < infinity then flip_t else infinity)
             and best_target = ref 0 (* 1 leave at lower, 2 at upper *)
             and best_mag = ref 0.0 in
             for k = 0 to !nw - 1 do
               let r = wnz.(k) in
               let wr = w.(r) in
               if Float.abs wr > ztol then begin
                 let delta = sigma *. wr in
                 let j = st.basis.(r) in
                 let v = st.xb.(r) in
                 let target =
                   if delta > 0.0 then
                     (* decreasing basic *)
                     if v > st.up.(j) +. ftol then st.up.(j)
                     else if v < st.lo.(j) -. ftol then neg_infinity (* no block *)
                     else st.lo.(j)
                   else if v < st.lo.(j) -. ftol then st.lo.(j)
                   else if v > st.up.(j) +. ftol then infinity (* no block *)
                   else st.up.(j)
                 in
                 if Float.abs target < infinity then begin
                   let t = Float.max 0.0 ((v -. target) /. delta) in
                   let better =
                     t < !best_t -. 1e-9
                     || (t < !best_t +. 1e-9
                        && !best_r >= 0
                        &&
                        if bland then j < st.basis.(!best_r)
                        else Float.abs delta > !best_mag)
                   in
                   if better then begin
                     best_r := r;
                     best_t := t;
                     best_mag := Float.abs delta;
                     best_target := (if target = st.lo.(j) then 1 else 2)
                   end
                 end
               end
             done;
             if !best_t = infinity then
               (* An unbounded phase-1 step is impossible in exact
                  arithmetic (the violation costs block it); reaching
                  it means the factorization has lost the program, so
                  it escalates to the recovery ladder instead of being
                  reported as a verdict. *)
               if phase1 then raise Breakdown else raise Unbounded_exn;
             let t = !best_t in
             if !best_r < 0 || (flip_t < infinity && flip_t <= t) then begin
               (* Bound flip: no basis change. *)
               for k = 0 to !nw - 1 do
                 let r = wnz.(k) in
                 if w.(r) <> 0.0 then
                   st.xb.(r) <- st.xb.(r) -. (flip_t *. sigma *. w.(r))
               done;
               st.stat.(q) <- (if st.stat.(q) = 1 then 2 else 1);
               clean := false;
               if flip_t *. Float.abs !enter_d > 1e-12 then stall := 0
               else incr stall;
               settle st !nw
             end
             else begin
               let r = !best_r in
               let leaving = st.basis.(r) in
               let entering_value = nbval st q +. (sigma *. t) in
               for k = 0 to !nw - 1 do
                 let i = wnz.(k) in
                 if w.(i) <> 0.0 then
                   st.xb.(i) <- st.xb.(i) -. (t *. sigma *. w.(i))
               done;
               st.xb.(r) <- entering_value;
               st.stat.(leaving) <- !best_target;
               st.pos.(leaving) <- -1;
               st.stat.(q) <- 0;
               st.pos.(q) <- r;
               st.basis.(r) <- q;
               if not st.ws.cb_phase1 then st.cb.(r) <- st.cost.(q);
               st.ws.y_ok <- false;
               (* Absorb the basis change into the factorization: the
                  spike the FTRAN above kept replaces column r. *)
               Factor.update st.f ~pivot_row:r w;
               incr pivots;
               clean := false;
               if t *. Float.abs !enter_d > 1e-12 then stall := 0
               else incr stall;
               settle st !nw;
               if !pivots > max_pivots then
                 failwith
                   (Printf.sprintf
                      "Revised_simplex.solve: pivot limit exceeded (%d rows, \
                       %d cols)"
                      st.m st.ncols);
               if Factor.should_refactor st.f then begin
                 refresh st;
                 clean := true
               end
             end
           end
         end
       done
     with
    | Unbounded_exn -> verdict := Some V_unbounded
    | Timeout_exn feasible -> verdict := Some (V_timeout feasible));
    match !verdict with
    | Some V_infeasible -> Infeasible
    | Some V_unbounded -> Unbounded
    | Some V_done ->
        let x = extract_x st in
        Optimal
          {
            x;
            objective = Problem.eval_objective problem x;
            pivots = !pivots;
            basis = { stat0 = Array.sub st.stat 0 st.ncols };
            stats = solver_stats st;
          }
    | Some (V_timeout feasible) ->
        let x = extract_x st in
        Timeout
          {
            x;
            objective = Problem.eval_objective problem x;
            pivots = !pivots;
            basis = { stat0 = Array.sub st.stat 0 st.ncols };
            feasible;
            stats = solver_stats st;
          }
    | None -> assert false
  end

(* ---------------- recovery ladder --------------------------------- *)

(* Deterministic per-column jitter in [-1, 1) for the perturbed retry:
   the splitmix64 finalizer over the column index, so the retry is
   reproducible and independent of any global RNG state. *)
let jitter j =
  let open Int64 in
  let z = mul (add (of_int (j + 1)) 0x9e3779b97f4a7c15L) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 30)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  (to_float (shift_right_logical z 11) *. 0x1p-52) -. 1.0

let solve ?(max_pivots = 500_000) ?basis ?token ?refactor_every problem =
  let token =
    match token with Some t -> t | None -> Supervise.unlimited ()
  in
  screen_problem problem;
  with_workspace problem @@ fun ws ->
  match attempt ws ?basis ?refactor_every ~max_pivots ~token problem with
  | result -> result
  | exception Breakdown -> (
      (* Rung 2: cold restart under Bland's rule. Slower but immune to
         cycling, and the cold install discards whatever basis drove
         the numerics into the ground. *)
      match
        attempt ws ~force_bland:true ?refactor_every ~max_pivots ~token problem
      with
      | result -> result
      | exception Breakdown -> (
          (* Rung 3: one perturbed retry. A relative + absolute jitter
             of the objective breaks the degenerate ties that defeat
             even Bland on numerically hostile programs; the optimal
             basis of the perturbed program then warm starts a final
             Bland solve of the *true* program, which certifies the
             unperturbed objective. *)
          let perturbed = Problem.clone problem in
          let objs = Problem.objective problem in
          Array.iteri
            (fun j c ->
              let u = jitter j in
              Problem.set_obj perturbed j
                (c *. (1.0 +. (1e-7 *. u)) +. (1e-9 *. u)))
            objs;
          let fail () =
            failwith
              "Revised_simplex.solve: numerical breakdown persisted after \
               Bland restart and perturbed retry"
          in
          match
            attempt ws ~force_bland:true ?refactor_every ~max_pivots ~token
              perturbed
          with
          | exception Breakdown -> fail ()
          | Optimal { basis = pb; _ } -> (
              match
                attempt ws ~basis:pb ~force_bland:true ?refactor_every
                  ~max_pivots ~token problem
              with
              | result -> result
              | exception Breakdown -> fail ())
          | (Infeasible | Unbounded) as r ->
              (* Feasibility is untouched by an objective perturbation,
                 so these verdicts transfer to the true program. *)
              r
          | Timeout p ->
              (* Re-price the partial against the true objective. *)
              Timeout
                { p with objective = Problem.eval_objective problem p.x }))
