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
   slack a certificate adds on top of [solution.ub]. *)
let weight_mass p =
  (* Loops, not [Array.iter]: a closure-captured float ref would box
     every partial sum, and every Frank-Wolfe relaxation pays this pass
     for its certificate. *)
  let acc = ref 0.0 in
  for i = 0 to Array.length p.pairs - 1 do
    let _, _, w = p.pairs.(i) in
    for c = 0 to Array.length w - 1 do
      acc := !acc +. Float.abs w.(c)
    done
  done;
  !acc

let smoothing_slack ~smoothing p = smoothing *. Float.log 2.0 *. weight_mass p

(* ------------------------------------------------------------------ *)
(* The production engine. One sweep per iteration computes, per user:
   the exact objective contribution, the soft-min gradient, the top-k
   oracle vertex, the Frank-Wolfe gap contribution <grad, v - x>, and
   (in swap mode) the best mass-swap move. The iterate, the gradient
   and the oracle slots are flat [n*m] (resp. [n*k]) arrays indexed
   [u*m + c]. A serial sweep runs two loops:

   - the pair pass walks the pairs with a non-zero weight in pair-array
     order and, per non-zero (pair, item), takes one [exp] and adds
     both endpoints' weighted soft-min shares straight into the
     gradient (which starts as a copy of the linear terms), plus the
     exact [min] term into the lower-numbered endpoint's objective
     slot;
   - the user pass runs, per user, the dot products, the swap move,
     the top-k oracle and the gap.

   The pair pass adds to each gradient cell the same terms in the same
   order as a walk of the user's own pairs in pair-array order (pair-
   major, then item), and each endpoint's share is the stable logistic
   evaluated from that endpoint: with [z = (x_hi - x_lo)/smoothing]
   and [E = exp(-|z|)], the coordinate with the smaller value takes
   [w·1/(1+E)] and the other [w·E/(1+E)]. IEEE subtraction and
   division are exactly antisymmetric, so the other endpoint's argument
   is exactly [-z] and its formula takes the same [exp]; at [z = ±0]
   both shares are [w·0.5], so the tie needs no rule. [x_lo <= x_hi]
   is exactly [x_hi - x_lo >= 0], so the pass picks the larger share's
   cell, and the [min] term's coordinate, by index from that one
   comparison instead of by branch.

   A pair pass cannot be split by users without two workers adding to
   one cell, so a fanned-out sweep ([domains > 1]) keeps a share/gather
   split over a per-user CSR adjacency built for that solve: the share
   pass visits each (pair, item) from its lower-numbered endpoint and
   writes both shares into per-entry slots (the second through [mate]);
   after a join, the gather pass sums each user's shares into its
   gradient row in CSR row order, which is pair-array order again,
   then runs the user pass. Every slot has one writer and the objective
   and gap are reduced serially by user index, so every worker count
   gives the serial run's bits. A third per-user pass applies the
   updates (it must not run concurrently with the sweep's reads).

   Nothing on the serial iteration path allocates (for the k <= 16
   insertion oracle): every float stays in a flat array, an all-float
   record or a local the compiler unboxes, the step size reaches the
   update through a one-slot array rather than as a (boxed) argument,
   and there are no closures, options, tuples or lists on the path.
   The [fw_sweep] bench row and [test_fw.ml] pin it. *)

type sweep_state = {
  sp : problem;
  smoothing : float;
  swap_steps : bool;
  small_k : bool;
      (* Select.top_k sorts the whole row; for the small k of display
         configurations, one insertion pass into the user's vertex
         slots is cheaper and allocation-free. Both paths keep the
         lowest-index tie-break. *)
  (* The pairs with a non-zero weight, in pair-array order: endpoints
     (lower-numbered first) and the span of their non-zero (item,
     weight) entries in [item]/[wgt]. *)
  lo : int array;
  hi : int array;
  span : int array;  (* pairs + 1 *)
  item : int array;
  wgt : float array;
  lin : float array;  (* n*m: the linear terms *)
  x : float array;  (* n*m: the current iterate *)
  g : float array;  (* n*m: the soft-min gradient *)
  pair_obj : float array;
      (* per user: exact min terms of the pairs it is the lower endpoint
         of, so the by-index reduction counts each pair once *)
  (* Per-user slots written by the user pass. *)
  obj_u : float array;
  gap_u : float array;
  tops : int array;  (* n*k: oracle vertex, best coordinate first *)
  topv : float array;  (* n*k: the gradient at each [tops] entry *)
  swap_to : int array;
  swap_from : int array;
  swap_cap : float array;
  swap_gain : float array;
  step : float array;  (* one slot: the step size the update reads *)
}

let sweep_state ?(smoothing = 0.05) ?(swap_steps = false) p =
  assert (p.k >= 1 && p.k <= p.m);
  assert (smoothing > 0.0);
  let n = p.n and m = p.m and k = p.k in
  if Array.length p.linear <> n then
    invalid_arg "Pairwise_fw: linear term count <> n";
  let x = Array.make (n * m) (float_of_int k /. float_of_int m) in
  let pairs = ref 0 and entries = ref 0 in
  Array.iter
    (fun (u, v, w) ->
      if u = v then invalid_arg "Pairwise_fw: self-pair";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Pairwise_fw: pair endpoint out of range";
      let nz = ref 0 in
      for c = 0 to m - 1 do
        if w.(c) <> 0.0 then incr nz
      done;
      if !nz > 0 then begin
        incr pairs;
        entries := !entries + !nz
      end)
    p.pairs;
  let lo = Array.make !pairs 0 and hi = Array.make !pairs 0 in
  let span = Array.make (!pairs + 1) 0 in
  let item = Array.make !entries 0 and wgt = Array.make !entries 0.0 in
  let i = ref 0 and e = ref 0 in
  Array.iter
    (fun (u, v, w) ->
      let e0 = !e in
      for c = 0 to m - 1 do
        if w.(c) <> 0.0 then begin
          item.(!e) <- c;
          wgt.(!e) <- w.(c);
          incr e
        end
      done;
      if !e > e0 then begin
        lo.(!i) <- (if u < v then u else v);
        hi.(!i) <- (if u < v then v else u);
        incr i;
        span.(!i) <- !e
      end)
    p.pairs;
  let lin = Array.make (n * m) 0.0 in
  Array.iteri (fun u row -> Array.blit row 0 lin (u * m) m) p.linear;
  {
    sp = p;
    smoothing;
    swap_steps;
    small_k = k <= 16;
    lo;
    hi;
    span;
    item;
    wgt;
    lin;
    x;
    g = Array.make (n * m) 0.0;
    pair_obj = Array.make n 0.0;
    obj_u = Array.make n 0.0;
    gap_u = Array.make n 0.0;
    tops = Array.make (n * k) 0;
    topv = Array.make (n * k) 0.0;
    swap_to = Array.make n (-1);
    swap_from = Array.make n (-1);
    swap_cap = Array.make n 0.0;
    swap_gain = Array.make n 0.0;
    step = [| 0.0 |];
  }

(* The serial sweep's first loop: the gradient and the exact pair
   objective terms (the argument above). The logistic share is inlined
   by hand: a non-inlined float-returning call would box its result,
   breaking the zero-allocation contract. *)
let pair_pass st =
  let m = st.sp.m in
  let x = st.x and g = st.g and item = st.item and wgt = st.wgt in
  let pair_obj = st.pair_obj and smoothing = st.smoothing in
  Array.blit st.lin 0 g 0 (Array.length g);
  Array.fill pair_obj 0 (Array.length pair_obj) 0.0;
  for i = 0 to Array.length st.lo - 1 do
    let l = st.lo.(i) in
    let bl = l * m and bh = st.hi.(i) * m in
    let acc = ref pair_obj.(l) in
    for e = st.span.(i) to st.span.(i + 1) - 1 do
      let c = item.(e) and w = wgt.(e) in
      let il = bl + c and ih = bh + c in
      let d = x.(ih) -. x.(il) in
      let ez = exp (-.Float.abs (d /. smoothing)) in
      (* [lower] is 1 when x_lo <= x_hi: the lower endpoint's cell then
         takes the larger share and holds the min. *)
      let lower = Bool.to_int (d >= 0.0) in
      let imin = ih - (lower * (ih - il)) in
      let imax = il + ih - imin in
      g.(imin) <- g.(imin) +. (w *. (1.0 /. (1.0 +. ez)));
      g.(imax) <- g.(imax) +. (w *. (ez /. (1.0 +. ez)));
      acc := !acc +. (w *. x.(imin))
    done;
    pair_obj.(l) <- !acc
  done

(* The user pass for user u, once u's gradient row is complete: the
   objective slot, the dot product and swap move (one loop), the top-k
   oracle and the gap contribution. *)
let user_pass st u =
  let p = st.sp in
  let m = p.m and k = p.k in
  let x = st.x and g = st.g and lin = st.lin in
  let b = u * m in
  let swap = st.swap_steps in
  (* Best single mass swap: move weight onto the best coordinate with
     headroom from the worst coordinate with mass. *)
  let hi = ref (-1) and lo = ref (-1) in
  let ghi = ref 0.0 and glo = ref 0.0 in
  let lin_obj = ref 0.0 and dot = ref 0.0 in
  for c = 0 to m - 1 do
    let i = b + c in
    let xi = x.(i) and gi = g.(i) in
    lin_obj := !lin_obj +. (lin.(i) *. xi);
    dot := !dot +. (gi *. xi);
    if swap then begin
      if xi < 1.0 -. 1e-12 && (!hi < 0 || gi > !ghi) then begin
        hi := c;
        ghi := gi
      end;
      if xi > 1e-12 && (!lo < 0 || gi < !glo) then begin
        lo := c;
        glo := gi
      end
    end
  done;
  st.obj_u.(u) <- !lin_obj +. st.pair_obj.(u);
  if swap then begin
    if !hi >= 0 && !lo >= 0 && !hi <> !lo && !ghi > !glo then begin
      st.swap_to.(u) <- !hi;
      st.swap_from.(u) <- !lo;
      let headroom = 1.0 -. x.(b + !hi) and mass = x.(b + !lo) in
      st.swap_cap.(u) <- (if headroom <= mass then headroom else mass);
      st.swap_gain.(u) <- !ghi -. !glo
    end
    else begin
      st.swap_to.(u) <- -1;
      st.swap_from.(u) <- -1;
      st.swap_cap.(u) <- 0.0;
      st.swap_gain.(u) <- 0.0
    end
  end;
  let tops = st.tops and topv = st.topv and tb = u * k in
  let top_sum = ref 0.0 in
  if st.small_k then begin
    (* One pass in index order keeps the best [k] coordinates sorted in
       [tops]/[topv], larger gradient first. Every comparison is
       strict, so of equal gradients the lower index stays ahead: the
       vertex and its order are those of [k] masked argmax passes with
       the lowest-index tie-break. *)
    let last = tb + k - 1 in
    let filled = ref 0 and thr = ref neg_infinity in
    for c = 0 to m - 1 do
      let v = g.(b + c) in
      if v > !thr then begin
        let j = ref (if !filled < k then tb + !filled else last) in
        if !filled < k then incr filled;
        while !j > tb && v > topv.(!j - 1) do
          topv.(!j) <- topv.(!j - 1);
          tops.(!j) <- tops.(!j - 1);
          decr j
        done;
        topv.(!j) <- v;
        tops.(!j) <- c;
        if !filled = k then thr := topv.(last)
      end
    done;
    for s = tb to last do
      top_sum := !top_sum +. topv.(s)
    done
  end
  else begin
    (* A fresh copy per call: [Select.top_k] allocates anyway, and a
       buffer in the state would be shared by the fanned-out sweep's
       workers. *)
    let row = Array.sub g b m in
    let sel = Select.top_k k row in
    Array.blit sel 0 tops tb k;
    (* An explicit loop, not [Array.iter]: an iter body would capture
       [top_sum], and a captured ref lives on the heap with boxed
       float stores — on the small_k path too, since the capture is a
       compile-time property of the whole function. *)
    for i = 0 to k - 1 do
      top_sum := !top_sum +. row.(sel.(i))
    done
  end;
  st.gap_u.(u) <- !top_sum -. !dot

let sweep_serial st =
  pair_pass st;
  for u = 0 to st.sp.n - 1 do
    user_pass st u
  done

let gradient ?(smoothing = 0.05) p x =
  let st = sweep_state ~smoothing p in
  Array.iteri (fun u row -> Array.blit row 0 st.x (u * p.m) p.m) x;
  pair_pass st;
  Array.init p.n (fun u -> Array.sub st.g (u * p.m) p.m)

(* ------------------------------------------------------------------ *)
(* The fanned-out sweep's per-user CSR adjacency of (neighbour, item,
   weight) entries: each undirected pair contributes one entry to each
   endpoint's row per item with a non-zero weight, in pair-array order
   (pair-major, then item). [mate] links the two entries of one
   (pair, item). Built only by solves with [domains > 1]. *)

type csr = {
  ptr : int array;  (* n + 1 *)
  nbr : int array;  (* nnz: the other endpoint *)
  citem : int array;  (* nnz *)
  cwgt : float array;  (* nnz *)
  mate : int array;  (* nnz: the same (pair, item) in the other row *)
}

let build_csr st =
  let n = st.sp.n in
  let count = Array.make n 0 in
  for i = 0 to Array.length st.lo - 1 do
    let len = st.span.(i + 1) - st.span.(i) in
    count.(st.lo.(i)) <- count.(st.lo.(i)) + len;
    count.(st.hi.(i)) <- count.(st.hi.(i)) + len
  done;
  let ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    ptr.(u + 1) <- ptr.(u) + count.(u)
  done;
  let nnz = ptr.(n) in
  let nbr = Array.make nnz 0 and citem = Array.make nnz 0 in
  let cwgt = Array.make nnz 0.0 and mate = Array.make nnz 0 in
  let fill = Array.sub ptr 0 n in
  for i = 0 to Array.length st.lo - 1 do
    let l = st.lo.(i) and h = st.hi.(i) in
    for e = st.span.(i) to st.span.(i + 1) - 1 do
      let il = fill.(l) and ih = fill.(h) in
      nbr.(il) <- h;
      nbr.(ih) <- l;
      citem.(il) <- st.item.(e);
      citem.(ih) <- st.item.(e);
      cwgt.(il) <- st.wgt.(e);
      cwgt.(ih) <- st.wgt.(e);
      mate.(il) <- ih;
      mate.(ih) <- il;
      fill.(l) <- il + 1;
      fill.(h) <- ih + 1
    done
  done;
  { ptr; nbr; citem; cwgt; mate }

(* Share pass for user u: the pair pass's arithmetic for the entries
   whose neighbour is numbered higher, with both shares written to
   [share] slots instead of the gradient. *)
let share_user st adj share u =
  let m = st.sp.m and x = st.x and smoothing = st.smoothing in
  let bu = u * m in
  let acc = ref 0.0 in
  for e = adj.ptr.(u) to adj.ptr.(u + 1) - 1 do
    let v = adj.nbr.(e) in
    if v > u then begin
      let c = adj.citem.(e) and w = adj.cwgt.(e) in
      let il = bu + c and ih = (v * m) + c in
      let d = x.(ih) -. x.(il) in
      let ez = exp (-.Float.abs (d /. smoothing)) in
      let larger = w *. (1.0 /. (1.0 +. ez)) in
      let smaller = w *. (ez /. (1.0 +. ez)) in
      if d >= 0.0 then begin
        share.(e) <- larger;
        share.(adj.mate.(e)) <- smaller;
        acc := !acc +. (w *. x.(il))
      end
      else begin
        share.(e) <- smaller;
        share.(adj.mate.(e)) <- larger;
        acc := !acc +. (w *. x.(ih))
      end
    end
  done;
  st.pair_obj.(u) <- !acc

(* Gather pass for user u: its gradient row, the linear terms plus its
   shares in CSR row order, then the user pass. *)
let gather_user st adj share u =
  let m = st.sp.m and g = st.g in
  let b = u * m in
  Array.blit st.lin b g b m;
  for e = adj.ptr.(u) to adj.ptr.(u + 1) - 1 do
    let i = b + adj.citem.(e) in
    g.(i) <- g.(i) +. share.(e)
  done;
  user_pass st u

(* Applies the recorded step to user u, with the step size from
   [st.step]. The swap step is taken when its first-order progress
   beats the classic step's; both choices depend only on per-user
   slots and the step size, so the decision is identical for every
   worker count. *)
let apply_user st u =
  let m = st.sp.m and k = st.sp.k in
  let x = st.x and b = u * m in
  let gamma = st.step.(0) in
  let t = Float.min st.swap_cap.(u) gamma in
  if
    st.swap_steps && st.swap_to.(u) >= 0
    && st.swap_gain.(u) *. t > st.gap_u.(u) *. gamma
  then begin
    let ito = b + st.swap_to.(u) and ifrom = b + st.swap_from.(u) in
    x.(ito) <- x.(ito) +. t;
    x.(ifrom) <- x.(ifrom) -. t
  end
  else begin
    for i = b to b + m - 1 do
      x.(i) <- (1.0 -. gamma) *. x.(i)
    done;
    for slot = 0 to k - 1 do
      let c = st.tops.((u * k) + slot) in
      x.(b + c) <- x.(b + c) +. gamma
    done
  end

(* Default fan-out: parallel only when the per-sweep work amortizes the
   CSR the fanned-out sweep builds and its three fan-outs per
   iteration. Calibrated on fw_solve_mc rows taken against the serial
   pair pass (Timik-like, m = 12, 2-vCPU VM, host stealing under 0.5%
   of CPU time): over seven runs, 7,200 is the smallest n·m at which
   two domains won every run, and they lost some run at every size up
   to 3,600. *)
let auto_domains p =
  if p.n > 1 && p.n * p.m >= 7_200 then Pool.available_domains () else 1

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

(* What the solve loop reads back after each sweep, and the best-so-far
   tracking. An all-float record stores its fields unboxed, so
   updating it allocates nothing. *)
type tally = {
  mutable obj : float;  (* exact objective of the last swept iterate *)
  mutable gap : float;  (* its smoothed Frank-Wolfe gap *)
  mutable best_obj : float;
  mutable best_gap : float;
  mutable best_ub : float;
}

(* Reduces the swept iterate's per-user slots serially by user index
   and banks it if it is the best so far. *)
let record st tl best =
  let obj = ref 0.0 and gap = ref 0.0 in
  for u = 0 to st.sp.n - 1 do
    obj := !obj +. st.obj_u.(u);
    gap := !gap +. st.gap_u.(u)
  done;
  let obj = !obj and gap = !gap in
  tl.obj <- obj;
  tl.gap <- gap;
  if obj > tl.best_obj then begin
    tl.best_obj <- obj;
    Array.blit st.x 0 best 0 (Array.length best)
  end;
  if gap < tl.best_gap then tl.best_gap <- gap;
  (* Sound per-iterate upper bound on the smoothed optimum x_opt: by
     concavity f_s(x_opt) <= f_s(x) + <grad f_s(x), v - x>, and the
     soft-min undershoots the true min so f_s(x) <= f(x); hence
     f_s(x_opt) <= f(x) + gap. The caller adds the smoothing slack
     [smoothing·ln 2·W] (f <= f_s + slack) to recover a bound on the
     exact optimum. *)
  let cand = obj +. gap in
  if cand -. cand = 0.0 && cand < tl.best_ub then tl.best_ub <- cand

let solve ?(iterations = 400) ?(smoothing = 0.05) ?gap_tol ?domains ?token
    ?(swap_steps = false) p =
  assert (p.k >= 1 && p.k <= p.m);
  assert (smoothing > 0.0);
  screen p;
  let token =
    match token with Some t -> t | None -> Supervise.unlimited ()
  in
  let n = p.n and m = p.m in
  let domains = match domains with Some d -> d | None -> auto_domains p in
  let st = sweep_state ~smoothing ~swap_steps p in
  let best = Array.copy st.x in
  let tl =
    {
      obj = 0.0;
      gap = 0.0;
      best_obj = neg_infinity;
      best_gap = infinity;
      best_ub = infinity;
    }
  in
  (* The sweep and update closures are built once here, not per
     iteration. A fanned-out solve builds its CSR adjacency and share
     slots here too, and joins the share pass before the gather pass
     reads any share. *)
  let sweep, update =
    if domains <= 1 then
      ( (fun () -> sweep_serial st),
        fun () ->
          for u = 0 to n - 1 do
            apply_user st u
          done )
    else begin
      let adj = build_csr st in
      let share = Array.make (Array.length adj.nbr) 0.0 in
      let par_share u = share_user st adj share u in
      let par_gather u = gather_user st adj share u in
      let par_apply u = apply_user st u in
      ( (fun () ->
          Pool.parallel_for ~domains n par_share;
          Pool.parallel_for ~domains n par_gather),
        fun () -> Pool.parallel_for ~domains n par_apply )
    end
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
      record st tl best;
      let obj = tl.obj and gap = tl.gap in
      (* Iterate health guard ([v -. v <> 0.0] catches NaN and both
         infinities): a non-finite objective or gap means the iterate
         is poisoned and every further sweep would be too, so stop and
         return the best finite iterate already banked — the best/gap
         tracking above rejects non-finite candidates by comparison. *)
      if obj -. obj <> 0.0 || gap -. gap <> 0.0 then stopped := true
      else
        match gap_tol with
        | Some tol when gap <= tol -> stopped := true
        | _ ->
            st.step.(0) <- 2.0 /. float_of_int (!steps + 2);
            update ();
            incr steps
    end
  done;
  (* The last update left an unevaluated iterate; score it so the best
     tracking covers every point visited. *)
  if not !stopped then begin
    sweep ();
    record st tl best
  end;
  let x = Array.init n (fun u -> Array.sub best (u * m) m) in
  (* A timeout before the first completed sweep has banked nothing:
     score the current (initial) iterate directly so the caller still
     gets a real objective. *)
  if tl.best_obj = neg_infinity then tl.best_obj <- objective p x;
  {
    x;
    objective = tl.best_obj;
    iterations = !steps;
    gap = tl.best_gap;
    ub = tl.best_ub;
    timed_out = !timed_out;
  }
