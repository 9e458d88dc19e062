module Pool = Svgic_util.Pool
module Select = Svgic_util.Select
module Supervise = Svgic_util.Supervise

type problem = {
  n : int;
  m : int;
  k : int;
  linear : float array array;
  pairs : (int * int * float array) array;
}

type solution = {
  x : float array array;
  objective : float;
  iterations : int;
  gap : float;
  ub : float;
  timed_out : bool;
}

(* Coordinate fixing states for branch-and-bound node solves. *)
let fx_free = 0
let fx_zero = 1
let fx_one = 2

let objective p x =
  let acc = ref 0.0 in
  for u = 0 to p.n - 1 do
    let lin = p.linear.(u) and xu = x.(u) in
    for c = 0 to p.m - 1 do
      acc := !acc +. (lin.(c) *. xu.(c))
    done
  done;
  Array.iter
    (fun (u, v, w) ->
      let xu = x.(u) and xv = x.(v) in
      for c = 0 to p.m - 1 do
        if w.(c) <> 0.0 then acc := !acc +. (w.(c) *. Float.min xu.(c) xv.(c))
      done)
    p.pairs;
  !acc

(* Total absolute pair-weight mass W: the soft-min smoothing brackets
   the exact objective within [smoothing · ln 2 · W], which is the
   slack certificate consumers add on top of [solution.ub]. *)
let weight_mass p =
  let acc = ref 0.0 in
  Array.iter
    (fun (_, _, w) -> Array.iter (fun wc -> acc := !acc +. Float.abs wc) w)
    p.pairs;
  !acc

let smoothing_slack ~smoothing p = smoothing *. Float.log 2.0 *. weight_mass p

(* ------------------------------------------------------------------ *)
(* Sparse pair storage: per-user CSR adjacency of (neighbor, item,
   weight) triples. Each undirected pair (u, v, w) contributes one
   entry to u's list and one to v's list per item with w_c <> 0, so a
   full gradient/objective sweep costs O(n·m + nnz) instead of the
   prototype's O(n·m + |pairs|·m). Entry order is fixed by the pair
   array (pair-major, then item), which pins the float accumulation
   order per user independently of how users are assigned to
   workers. [mate] links the two entries of one (pair, item): the
   share pass computes both endpoints' soft-min shares from one [exp]
   and writes the second through it. *)

type csr = {
  ptr : int array;  (* n + 1 *)
  nbr : int array;  (* nnz: the other endpoint *)
  item : int array;  (* nnz *)
  wgt : float array;  (* nnz *)
  mate : int array;  (* nnz: the same (pair, item) in the other row *)
}

let build_csr p =
  let count = Array.make p.n 0 in
  Array.iter
    (fun (u, v, w) ->
      if u = v then invalid_arg "Pairwise_fw: self-pair";
      if u < 0 || u >= p.n || v < 0 || v >= p.n then
        invalid_arg "Pairwise_fw: pair endpoint out of range";
      let nz = ref 0 in
      Array.iter (fun wc -> if wc <> 0.0 then incr nz) w;
      count.(u) <- count.(u) + !nz;
      count.(v) <- count.(v) + !nz)
    p.pairs;
  let ptr = Array.make (p.n + 1) 0 in
  for u = 0 to p.n - 1 do
    ptr.(u + 1) <- ptr.(u) + count.(u)
  done;
  let nnz = ptr.(p.n) in
  let nbr = Array.make nnz 0 in
  let item = Array.make nnz 0 in
  let wgt = Array.make nnz 0.0 in
  let mate = Array.make nnz 0 in
  let fill = Array.sub ptr 0 p.n in
  Array.iter
    (fun (u, v, w) ->
      for c = 0 to p.m - 1 do
        let wc = w.(c) in
        if wc <> 0.0 then begin
          let iu = fill.(u) in
          nbr.(iu) <- v;
          item.(iu) <- c;
          wgt.(iu) <- wc;
          fill.(u) <- iu + 1;
          let iv = fill.(v) in
          nbr.(iv) <- u;
          item.(iv) <- c;
          wgt.(iv) <- wc;
          fill.(v) <- iv + 1;
          mate.(iu) <- iv;
          mate.(iv) <- iu
        end
      done)
    p.pairs;
  { ptr; nbr; item; wgt; mate }

(* ------------------------------------------------------------------ *)
(* The production engine. One sweep per iteration computes, per user:
   the exact objective contribution, the soft-min gradient, the top-k
   oracle vertex, the Frank-Wolfe gap contribution <grad, v - x>, and
   (in swap mode) the best mass-swap move. It runs in two passes over
   users:

   - the share pass visits each (pair, item) once, from its
     lower-numbered endpoint, takes one [exp], and writes both
     endpoints' weighted soft-min shares into the per-entry [share]
     array (the second through [mate]); it also adds the exact [min]
     objective terms;
   - the gather pass adds each user's shares into that user's
     gradient in CSR row order, then runs the dot product, swap move,
     oracle and gap.

   IEEE subtraction and division are exactly antisymmetric, so the
   other endpoint's argument is exactly [-z]. The stable logistic
   share ([1/(1+exp(-z))] for [z >= 0], [exp z/(1+exp z)] below) at
   [z] and at [-z] then takes the same [exp], and the pass writes
   exactly the bits a per-endpoint evaluation would (at [z = +0] both
   are 0.5). The split changes no result; each (pair, item) now takes
   one [exp] where each endpoint used to evaluate the formula.

   Each pass only reads the frozen iterate and writes slots no other
   user writes (a share slot belongs to its pair's lower endpoint), so
   fanning users out over Pool blocks, with a join between the passes,
   is bit-identical to the serial run for every worker count; the
   objective and gap are reduced serially by user index afterwards. A
   third per-user pass applies the updates (it must not run
   concurrently with the sweep's reads).

   All sweep inputs and outputs live in a [sweep_state] built once per
   solve: the iterate, the CSR adjacency, the share and per-user
   output slots and one preallocated serial scratch gradient. The
   serial sweep over a state allocates nothing (for the k <= 16
   masked-argmax oracle path) — every float stays in flat arrays or
   locals the compiler unboxes, and there are no closures, options or
   lists on the path — which is what the zero-allocation bench row
   pins. *)

type sweep_state = {
  sp : problem;
  adj : csr;
  smoothing : float;
  swap_steps : bool;
  small_k : bool;
      (* Select.top_k sorts the whole row; for the small k of display
         configurations, k masked argmax passes over the scratch
         gradient are cheaper and allocation-free. Both paths keep the
         lowest-index tie-break. *)
  fixed : int array;
      (* flat n*m fixing mask ([fx_free]/[fx_zero]/[fx_one]) for
         branch-and-bound node solves; length 0 when nothing is fixed,
         which keeps the pinned zero-allocation sweep path untouched *)
  free_k : int array;  (* per user: vertex slots left to the free coords *)
  x : float array array;  (* current iterate, n x m *)
  share : float array;  (* nnz: weighted soft-min share per CSR entry *)
  (* Per-user slots written by the sweep. *)
  obj_u : float array;
  gap_u : float array;
  tops : int array array;
  swap_to : int array;
  swap_from : int array;
  swap_cap : float array;
  swap_gain : float array;
  g0 : float array;  (* serial-path scratch gradient, length m *)
}

let sweep_state ?(smoothing = 0.05) ?(swap_steps = false) ?fixed p =
  assert (p.k >= 1 && p.k <= p.m);
  assert (smoothing > 0.0);
  let n = p.n and m = p.m and k = p.k in
  let fixed =
    match fixed with
    | None -> [||]
    | Some f ->
        if Array.length f <> n * m then
          invalid_arg "Pairwise_fw: fixing mask length <> n*m";
        f
  in
  let free_k = Array.make n k in
  let x =
    if Array.length fixed = 0 then
      Array.init n (fun _ -> Array.make m (float_of_int k /. float_of_int m))
    else
      Array.init n (fun u ->
          let ones = ref 0 and zeros = ref 0 in
          for c = 0 to m - 1 do
            let f = fixed.((u * m) + c) in
            if f = fx_one then incr ones else if f = fx_zero then incr zeros
          done;
          let free = m - !ones - !zeros in
          if !ones > k || free < k - !ones then
            invalid_arg "Pairwise_fw: infeasible fixing (user over-constrained)";
          free_k.(u) <- k - !ones;
          let fill =
            if free = 0 then 0.0
            else float_of_int (k - !ones) /. float_of_int free
          in
          Array.init m (fun c ->
              match fixed.((u * m) + c) with
              | f when f = fx_one -> 1.0
              | f when f = fx_zero -> 0.0
              | _ -> fill))
  in
  let adj = build_csr p in
  {
    sp = p;
    adj;
    smoothing;
    swap_steps;
    small_k = k <= 16;
    fixed;
    free_k;
    x;
    share = Array.make (Array.length adj.nbr) 0.0;
    obj_u = Array.make n 0.0;
    gap_u = Array.make n 0.0;
    tops = Array.init n (fun _ -> Array.make k 0);
    swap_to = Array.make n (-1);
    swap_from = Array.make n (-1);
    swap_cap = Array.make n 0.0;
    swap_gain = Array.make n 0.0;
    g0 = Array.make m 0.0;
  }

(* Share pass for user u: one [exp] per entry whose neighbour is
   numbered higher, writing both endpoints' shares (the antisymmetry
   argument above). The logistic share is inlined by hand: a
   non-inlined float-returning call would box its result, breaking the
   zero-allocation contract. *)
let share_user st u =
  let p = st.sp and adj = st.adj and x = st.x and share = st.share in
  let m = p.m in
  let smoothing = st.smoothing in
  let xu = x.(u) and lin = p.linear.(u) in
  let lin_obj = ref 0.0 in
  for c = 0 to m - 1 do
    lin_obj := !lin_obj +. (lin.(c) *. xu.(c))
  done;
  let pair_obj = ref 0.0 in
  for e = adj.ptr.(u) to adj.ptr.(u + 1) - 1 do
    let v = adj.nbr.(e) in
    if v > u then begin
      let c = adj.item.(e) in
      let w = adj.wgt.(e) in
      let xuc = xu.(c) and xvc = x.(v).(c) in
      let z = (xvc -. xuc) /. smoothing in
      if z >= 0.0 then begin
        let ez = exp (-.z) in
        share.(e) <- w *. (1.0 /. (1.0 +. ez));
        share.(adj.mate.(e)) <- w *. (ez /. (1.0 +. ez))
      end
      else begin
        let ez = exp z in
        share.(e) <- w *. (ez /. (1.0 +. ez));
        share.(adj.mate.(e)) <- w *. (1.0 /. (1.0 +. ez))
      end;
      (* Each pair's exact min term is attributed to its lower
         endpoint, so the serial by-index reduction counts it once. *)
      pair_obj := !pair_obj +. (w *. if xuc <= xvc then xuc else xvc)
    end
  done;
  st.obj_u.(u) <- !lin_obj +. !pair_obj

(* User u's soft-min gradient into [g]: the linear row plus u's shares,
   in CSR row order. Valid once the share pass has covered every
   user. *)
let gather_gradient st g u =
  let adj = st.adj and share = st.share in
  Array.blit st.sp.linear.(u) 0 g 0 st.sp.m;
  for e = adj.ptr.(u) to adj.ptr.(u + 1) - 1 do
    let c = adj.item.(e) in
    g.(c) <- g.(c) +. share.(e)
  done

(* Gather pass for user u: the gradient, then the dot product, swap
   move, top-k oracle and gap contribution. *)
let gather_user st g u =
  let p = st.sp and x = st.x in
  let m = p.m and k = p.k in
  let xu = x.(u) in
  gather_gradient st g u;
  let dot = ref 0.0 in
  for c = 0 to m - 1 do
    dot := !dot +. (g.(c) *. xu.(c))
  done;
  let has_fixed = Array.length st.fixed > 0 in
  let fb = u * m in
  if st.swap_steps then begin
    (* Best single mass swap: move weight onto the best coordinate
       with headroom from the worst coordinate with mass. Fixed
       coordinates are pinned and never take part. *)
    let hi = ref (-1) and lo = ref (-1) in
    if has_fixed then
      for c = 0 to m - 1 do
        if st.fixed.(fb + c) = fx_free then begin
          if xu.(c) < 1.0 -. 1e-12 && (!hi < 0 || g.(c) > g.(!hi)) then hi := c;
          if xu.(c) > 1e-12 && (!lo < 0 || g.(c) < g.(!lo)) then lo := c
        end
      done
    else
      for c = 0 to m - 1 do
        if xu.(c) < 1.0 -. 1e-12 && (!hi < 0 || g.(c) > g.(!hi)) then hi := c;
        if xu.(c) > 1e-12 && (!lo < 0 || g.(c) < g.(!lo)) then lo := c
      done;
    if !hi >= 0 && !lo >= 0 && !hi <> !lo && g.(!hi) > g.(!lo) then begin
      st.swap_to.(u) <- !hi;
      st.swap_from.(u) <- !lo;
      let headroom = 1.0 -. xu.(!hi) and mass = xu.(!lo) in
      st.swap_cap.(u) <- (if headroom <= mass then headroom else mass);
      st.swap_gain.(u) <- g.(!hi) -. g.(!lo)
    end
    else begin
      st.swap_to.(u) <- -1;
      st.swap_from.(u) <- -1;
      st.swap_cap.(u) <- 0.0;
      st.swap_gain.(u) <- 0.0
    end
  end;
  let top = st.tops.(u) in
  let top_sum = ref 0.0 in
  if has_fixed then begin
    (* Oracle under fixings: fixed-one coordinates are in every
       feasible vertex (their gradient joins [top_sum] directly),
       fixed coordinates of either kind never compete for the
       remaining [free_k] slots. Unused slots carry a -1 sentinel the
       update pass skips. *)
    for c = 0 to m - 1 do
      let f = st.fixed.(fb + c) in
      if f <> fx_free then begin
        if f = fx_one then top_sum := !top_sum +. g.(c);
        g.(c) <- neg_infinity
      end
    done;
    let fk = st.free_k.(u) in
    for slot = 0 to k - 1 do
      if slot < fk then begin
        let arg = ref 0 in
        for c = 1 to m - 1 do
          if g.(c) > g.(!arg) then arg := c
        done;
        top.(slot) <- !arg;
        top_sum := !top_sum +. g.(!arg);
        g.(!arg) <- neg_infinity
      end
      else top.(slot) <- -1
    done
  end
  else if st.small_k then
    for slot = 0 to k - 1 do
      let arg = ref 0 in
      for c = 1 to m - 1 do
        if g.(c) > g.(!arg) then arg := c
      done;
      top.(slot) <- !arg;
      top_sum := !top_sum +. g.(!arg);
      g.(!arg) <- neg_infinity
    done
  else begin
    let sel = Select.top_k k g in
    Array.blit sel 0 top 0 k;
    (* An explicit loop, not [Array.iter]: an iter body would capture
       [top_sum], and a captured ref lives on the heap with boxed
       float stores — on the small_k path too, since the capture is a
       compile-time property of the whole function. *)
    for i = 0 to k - 1 do
      top_sum := !top_sum +. g.(sel.(i))
    done
  end;
  st.gap_u.(u) <- !top_sum -. !dot

let sweep_serial st =
  for u = 0 to st.sp.n - 1 do
    share_user st u
  done;
  for u = 0 to st.sp.n - 1 do
    gather_user st st.g0 u
  done

let gradient ?(smoothing = 0.05) p x =
  let st = sweep_state ~smoothing p in
  Array.iteri (fun u row -> Array.blit row 0 st.x.(u) 0 p.m) x;
  for u = 0 to p.n - 1 do
    share_user st u
  done;
  Array.init p.n (fun u ->
      let g = Array.make p.m 0.0 in
      gather_gradient st g u;
      g)

(* Default fan-out: parallel only when the per-sweep work amortizes the
   two fan-outs per iteration. Calibrated on the committed fw_solve_mc
   rows (Timik-like, m = 12, 2-vCPU VM): two domains read slower than
   serial up to n·m = 1,200 and faster from 2,400 up. *)
let auto_domains p =
  if p.n > 1 && p.n * p.m >= 2_000 then Pool.available_domains () else 1

(* Input-data health screen: a poisoned preference or pair weight
   would propagate NaN through every gradient and silently zero the
   best-iterate tracking (NaN compares false), so it is rejected
   before the first sweep. *)
let screen p =
  let ok = ref true in
  Array.iter
    (fun row -> if not (Supervise.finite_arr row) then ok := false)
    p.linear;
  Array.iter
    (fun (_, _, w) -> if not (Supervise.finite_arr w) then ok := false)
    p.pairs;
  if not !ok then failwith "Pairwise_fw.solve: non-finite problem data"

let solve ?(iterations = 400) ?(smoothing = 0.05) ?gap_tol ?ub_target ?x0
    ?fixed ?domains ?token ?(swap_steps = false) p =
  assert (p.k >= 1 && p.k <= p.m);
  assert (smoothing > 0.0);
  screen p;
  let token =
    match token with Some t -> t | None -> Supervise.unlimited ()
  in
  let n = p.n and m = p.m and k = p.k in
  let domains = match domains with Some d -> d | None -> auto_domains p in
  let st = sweep_state ~smoothing ~swap_steps ?fixed p in
  let x = st.x in
  (* Warm start: adopt the caller's iterate (a parent branch-and-bound
     node's best point, projected by the caller onto this node's
     fixings). A poisoned warm start is rejected like poisoned problem
     data — the caller's recovery ladder retries cold. *)
  (match x0 with
  | None -> ()
  | Some x0 ->
      if Array.length x0 <> n then
        invalid_arg "Pairwise_fw.solve: warm start has wrong user count";
      if not (Supervise.finite_mat x0) then
        failwith "Pairwise_fw.solve: non-finite warm start";
      Array.iteri
        (fun u row ->
          if Array.length row <> m then
            invalid_arg "Pairwise_fw.solve: warm start has wrong item count";
          Array.blit row 0 x.(u) 0 m)
        x0);
  let has_fixed = Array.length st.fixed > 0 in
  let best = Array.init n (fun u -> Array.copy x.(u)) in
  let best_obj = ref neg_infinity in
  let best_gap = ref infinity in
  let best_ub = ref infinity in
  (* The fan-out closures are built once here, not per sweep: the
     serial path calls [sweep_serial] directly, so an iteration of the
     single-domain engine allocates nothing at all. The share pass is
     joined before the gather pass reads any share. *)
  let par_share u = share_user st u in
  let par_local () = Array.make m 0.0 in
  let par_gather g u = gather_user st g u in
  let sweep () =
    if domains <= 1 then sweep_serial st
    else begin
      Pool.parallel_for ~domains n par_share;
      Pool.parallel_for_local ~domains n ~local:par_local par_gather
    end
  in
  (* Applies the recorded step to user u. The swap step is taken when
     its first-order progress beats the classic step's; both choices
     depend only on per-user slots and gamma, so the decision is
     identical for every worker count. *)
  let apply gamma u =
    let xu = x.(u) in
    let t = Float.min st.swap_cap.(u) gamma in
    if
      swap_steps && st.swap_to.(u) >= 0
      && st.swap_gain.(u) *. t > st.gap_u.(u) *. gamma
    then begin
      xu.(st.swap_to.(u)) <- xu.(st.swap_to.(u)) +. t;
      xu.(st.swap_from.(u)) <- xu.(st.swap_from.(u)) -. t
    end
    else begin
      for c = 0 to m - 1 do
        xu.(c) <- (1.0 -. gamma) *. xu.(c)
      done;
      let top = st.tops.(u) in
      for slot = 0 to k - 1 do
        let c = top.(slot) in
        if c >= 0 then xu.(c) <- xu.(c) +. gamma
      done;
      (* Fixed coordinates are at their pinned value in both the
         iterate and the vertex, so the convex combination preserves
         them up to rounding; re-pin exactly to stop drift from
         compounding down a deep branch-and-bound path. *)
      if has_fixed then
        for c = 0 to m - 1 do
          let f = st.fixed.((u * m) + c) in
          if f = fx_one then xu.(c) <- 1.0
          else if f = fx_zero then xu.(c) <- 0.0
        done
    end
  in
  let record_iterate () =
    let obj = ref 0.0 and gap = ref 0.0 in
    for u = 0 to n - 1 do
      obj := !obj +. st.obj_u.(u);
      gap := !gap +. st.gap_u.(u)
    done;
    if !obj > !best_obj then begin
      best_obj := !obj;
      for u = 0 to n - 1 do
        Array.blit x.(u) 0 best.(u) 0 m
      done
    end;
    if !gap < !best_gap then best_gap := !gap;
    (* Sound per-iterate upper bound on the smoothed optimum x_opt: by
       concavity f_s(x_opt) <= f_s(x) + <grad f_s(x), v - x>, and the
       soft-min undershoots the true min so f_s(x) <= f(x); hence
       f_s(x_opt) <= f(x) + gap. The caller adds the smoothing slack
       [smoothing·ln 2·W] (f <= f_s + slack) to recover a bound on the
       exact optimum. *)
    let cand = !obj +. !gap in
    if cand -. cand = 0.0 && cand < !best_ub then best_ub := cand;
    (!obj, !gap)
  in
  let steps = ref 0 in
  let stopped = ref false in
  let timed_out = ref false in
  while (not !stopped) && !steps < iterations do
    (* Deadline poll: once per sweep, so a cancellation or expiry is
       honoured within one iteration and [best] still names the best
       exact-objective iterate recorded so far. *)
    if Supervise.expired token then begin
      stopped := true;
      timed_out := true
    end
    else begin
      sweep ();
      let obj, gap = record_iterate () in
      (* Iterate health guard ([v -. v <> 0.0] catches NaN and both
         infinities): a non-finite objective or gap means the iterate
         is poisoned and every further sweep would be too, so stop and
         return the best finite iterate already banked — the best/gap
         tracking above rejects non-finite candidates by comparison. *)
      if obj -. obj <> 0.0 || gap -. gap <> 0.0 then stopped := true
      else
        match gap_tol with
        | Some tol when gap <= tol -> stopped := true
        | _ when
            (match ub_target with
            | Some target -> obj +. gap <= target
            | None -> false) ->
            (* The certificate already proves this solve cannot beat
               the caller's target (a branch-and-bound incumbent):
               iterating further would only sharpen a bound that is
               tight enough to fathom on. *)
            stopped := true
        | _ ->
            let gamma = 2.0 /. float_of_int (!steps + 2) in
            if domains <= 1 then
              for u = 0 to n - 1 do
                apply gamma u
              done
            else Pool.parallel_for ~domains n (apply gamma);
            incr steps
    end
  done;
  (* The last update left an unevaluated iterate; score it so the best
     tracking covers every point visited. *)
  if not !stopped then begin
    sweep ();
    ignore (record_iterate ())
  end;
  (* A timeout before the first completed sweep has banked nothing:
     score the current (initial) iterate directly so the caller still
     gets a real objective. *)
  if !best_obj = neg_infinity then best_obj := objective p best;
  {
    x = best;
    objective = !best_obj;
    iterations = !steps;
    gap = !best_gap;
    ub = !best_ub;
    timed_out = !timed_out;
  }
