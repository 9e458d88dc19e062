module Rng = Svgic_util.Rng
module Fenwick = Svgic_util.Fenwick
module Pool = Svgic_util.Pool

(* ------------------------------------------------------------------ *)
(* AVG: randomized rounding                                            *)
(* ------------------------------------------------------------------ *)

(* The rounding loops take a fresh [state] from the caller so that
   best-of-N repeats can share one [Csf.prep] (factor table + user
   ordering) across all N states. *)
let avg_advanced_state rng state =
  let inst = Csf.instance state in
  let m = Instance.m inst and k = Instance.k inst in
  (* Cached advanced-sampling weights x̄*(c,s), kept in a Fenwick tree
     so one draw costs O(log(m·k)) instead of a full rescan. Caches are
     only ever stale-high (assignments can't raise a maximum), so a
     cached weight is refreshed when its pair is drawn; a refresh to
     zero simply voids the draw. *)
  let weights = Fenwick.create (m * k) in
  let tops =
    Array.init m (fun c ->
        (* Before any assignment the maximum eligible factor is
           slot-independent; compute it once per item. *)
        Float.max 0.0 (Csf.max_eligible_factor state ~item:c ~slot:0))
  in
  Fenwick.refill weights (fun idx -> tops.(idx / k));
  let refresh idx =
    let c = idx / k and s = idx mod k in
    let fresh = Float.max 0.0 (Csf.max_eligible_factor state ~item:c ~slot:s) in
    Fenwick.set weights idx fresh;
    fresh
  in
  (* Weights only decrease, so at most m·k draws in a row can land on
     stale cells before every cell has been refreshed; past that (or
     when the tree total hits zero) rebuild the tree exactly. The
     rebuild also clears the roundoff the incremental tree updates
     accumulate, so a residual epsilon total can't spin the loop. *)
  let stale_budget = 2 * m * k in
  let stale_draws = ref 0 in
  let finished = ref false in
  while not !finished do
    if Csf.complete state then finished := true
    else begin
      let total = Fenwick.total weights in
      if total <= 0.0 || !stale_draws > stale_budget then begin
        stale_draws := 0;
        let any = ref false in
        Fenwick.refill weights (fun idx ->
            let c = idx / k and s = idx mod k in
            let fresh =
              Float.max 0.0 (Csf.max_eligible_factor state ~item:c ~slot:s)
            in
            if fresh > 0.0 then any := true;
            fresh);
        if not !any then begin
          (* Only zero-factor cells remain; complete greedily. *)
          Csf.greedy_complete state;
          finished := true
        end
      end
      else begin
        let idx = Fenwick.sample rng weights in
        let fresh = refresh idx in
        if fresh > 0.0 then begin
          let c = idx / k and s = idx mod k in
          let alpha = Rng.float rng fresh in
          let assigned = Csf.apply state ~item:c ~slot:s ~alpha in
          if assigned <> [] then begin
            stale_draws := 0;
            ignore (refresh idx)
          end
          else incr stale_draws
        end
        else incr stale_draws
      end
    end
  done;
  Csf.to_config state

let avg_plain_state rng state =
  let inst = Csf.instance state in
  let m = Instance.m inst and k = Instance.k inst in
  let cap = 500 * Instance.n inst * k in
  let iterations = ref 0 in
  while (not (Csf.complete state)) && !iterations < cap do
    incr iterations;
    let c = Rng.int rng m and s = Rng.int rng k in
    let alpha = Rng.uniform rng in
    ignore (Csf.apply state ~item:c ~slot:s ~alpha)
  done;
  if not (Csf.complete state) then Csf.greedy_complete state;
  Csf.to_config state

(* λ = 0 makes SVGIC trivial (Section 4.4): the exact optimum is each
   user's top-k items; the rounding machinery is unnecessary (and, run
   anyway, only guarantees the 1/4 factor). The ST size cap still has
   to be respected, so the trivial path is only taken without one. *)
let top_k_greedy inst =
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  Config.make inst
    (Array.init n (fun u ->
         Svgic_util.Select.top_k k (Array.init m (fun c -> Instance.pref inst u c))))

let avg ?(advanced_sampling = true) ?size_cap rng inst relax =
  if Instance.lambda inst = 0.0 && size_cap = None then top_k_greedy inst
  else
    let state = Csf.create ?size_cap inst relax in
    if advanced_sampling then avg_advanced_state rng state
    else avg_plain_state rng state

let avg_best_of ?(advanced_sampling = true) ?size_cap ?domains ~repeats rng inst
    relax =
  assert (repeats >= 1);
  (* Each repeat gets its own stream split off the root serially, so
     the per-repeat configurations — and hence the by-index reduction —
     are identical for every worker count. *)
  let streams = Array.init repeats (fun _ -> Rng.split rng) in
  if Instance.lambda inst = 0.0 && size_cap = None then top_k_greedy inst
  else begin
    (* One shared factor table + user ordering for all repeats
       ([prepare] also forces the instance lazies, as Pool requires). *)
    let prep = Csf.prepare inst relax in
    let scored =
      Pool.parallel_map ?domains repeats (fun i ->
          let state = Csf.of_prep ?size_cap prep in
          let cfg =
            if advanced_sampling then avg_advanced_state streams.(i) state
            else avg_plain_state streams.(i) state
          in
          (cfg, Config.total_utility inst cfg))
    in
    let best = ref 0 in
    for i = 1 to repeats - 1 do
      if snd scored.(i) > snd scored.(!best) then best := i
    done;
    fst scored.(!best)
  end

(* ------------------------------------------------------------------ *)
(* AVG-D: derandomized rounding                                        *)
(* ------------------------------------------------------------------ *)

(* Candidate score for a focal pair (c, s): the best threshold
   α = x*(u,c,s) over eligible users, ranked by
       score = ALG(S_tar) - r · Δ_LP(S_tar)
   where Δ_LP is the part of OPT_LP(S_cur) removed by assigning the
   target subgroup. The global term r·OPT_LP(S_cur) is common to all
   candidates of an iteration and therefore dropped from the argmax.

   [scratch] is the per-worker mutable workspace of [evaluate_pair_hot],
   so the initial m·k sweep can fan out across domains without sharing
   scratch. [slot_free] caches per-user slot emptiness for one slot: the
   same-slot invalidation sweep evaluates every item of a single slot
   against a frozen state, so the lookups (including the per-edge
   neighbor checks, the hottest loads of the evaluation) are filled
   once per sweep instead of once per item. The subgroup under
   construction lives in [star]/[star_n] (a preallocated worklist, not
   a list — the eval loop must not cons), and the best candidate found
   is left in [best] rather than returned, so the hot path builds no
   options or records either. [best] is a float array, not a pair of
   mutable float fields: float fields of a mixed record are boxed, so
   every store would allocate. *)
type scratch = {
  in_star : bool array;
  star : int array;
  mutable star_n : int;
  slot_free : bool array;
  mutable best_found : bool;
  best : float array;  (* [| score; alpha |] of the best candidate *)
}

let make_scratch n =
  {
    in_star = Array.make n false;
    star = Array.make (max 1 n) 0;
    star_n = 0;
    slot_free = Array.make n false;
    best_found = false;
    best = [| neg_infinity; nan |];
  }


type avg_d_ctx = {
  state : Csf.t;
  p' : float array array;
  r : float;
  pcell : float array; (* Σ_c p'(u,c)·x*(u,c): LP mass of one cell of u *)
  wedge : float array; (* per pair: Σ_c w_e(c)·min factors — per-slot LP mass *)
  pair_w : float array array; (* per pair, per item *)
  adj : (int * int) array array; (* u -> (neighbor, pair index) *)
}

let make_ctx ?size_cap ~r inst relax =
  let n = Instance.n inst and m = Instance.m inst in
  let state = Csf.create ?size_cap inst relax in
  let facts = Csf.factors state in
  let p' = Instance.scaled_pref inst in
  let pair_w = Instance.pair_weights inst in
  let pcell =
    Array.init n (fun u ->
        let acc = ref 0.0 in
        for c = 0 to m - 1 do
          acc := !acc +. (p'.(u).(c) *. facts.(u).(c))
        done;
        !acc)
  in
  let wedge = Array.make (Instance.num_pairs inst) 0.0 in
  Instance.iter_pairs inst (fun e u v ->
      let acc = ref 0.0 in
      for c = 0 to m - 1 do
        acc := !acc +. (pair_w.(e).(c) *. Float.min facts.(u).(c) facts.(v).(c))
      done;
      wedge.(e) <- !acc);
  let adj_lists = Array.make n [] in
  Instance.iter_pairs inst (fun e u v ->
      adj_lists.(u) <- (v, e) :: adj_lists.(u);
      adj_lists.(v) <- (u, e) :: adj_lists.(v));
  {
    state;
    p';
    r;
    pcell;
    wedge;
    pair_w;
    adj = Array.map Array.of_list adj_lists;
  }

let prepare_slot ctx scratch ~slot =
  Csf.fill_slot_empty ctx.state ~slot scratch.slot_free

(* Evaluates the best threshold for a focal pair into
   [scratch.best_found] and [scratch.best]. O(n + degree sum of
   eligible users), and allocation-free: the loops below are written
   without closures ([Array.iter] bodies capture their environment) or
   intermediate structures, so the same-slot invalidation sweep — m
   calls against one prepared slot — stays off the minor heap
   entirely, which the [csf_slot_eval] bench row asserts. Only
   [scratch] is mutated; [scratch.slot_free] must hold [slot]'s
   emptiness flags (see [prepare_slot]). A locked pair has no eligible
   user, so it short-circuits without the user scan. *)
let evaluate_pair_hot ctx scratch ~item ~slot =
  scratch.best_found <- false;
  scratch.best.(0) <- neg_infinity;
  scratch.best.(1) <- nan;
  if not (Csf.locked ctx.state ~item ~slot) then begin
    let state = ctx.state in
    let facts = Csf.factors state in
    let order = Csf.sorted_users state item in
    let slot_free = scratch.slot_free in
    let in_star = scratch.in_star in
    let star = scratch.star in
    let pcell = ctx.pcell and wedge = ctx.wedge and adj = ctx.adj in
    let r = ctx.r in
    let alg = ref 0.0 and removed = ref 0.0 in
    (* [pending] is the factor of the last user added; [started] stands
       in for the seed code's NaN sentinel. The threshold-recording
       step is written out twice below instead of as a helper: a local
       function would capture these refs, forcing them onto the heap
       per call. On ties the earlier (higher) threshold keeps the
       seat, matching the seed's [s >= score] skip. *)
    let pending = ref 0.0 and started = ref false in
    let nstar = ref 0 in
    for oi = 0 to Array.length order - 1 do
      let u = order.(oi) in
      if slot_free.(u) && not (Csf.item_used state ~user:u ~item) then begin
        let f = facts.(u).(item) in
        (* Record the previous threshold once a strictly smaller
           factor appears (ties must enter the subgroup together). *)
        if !started && f < !pending then begin
          let score = !alg -. (r *. !removed) in
          if (not scratch.best_found) || score > scratch.best.(0) then begin
            scratch.best_found <- true;
            scratch.best.(0) <- score;
            scratch.best.(1) <- !pending
          end
        end;
        in_star.(u) <- true;
        star.(!nstar) <- u;
        incr nstar;
        alg := !alg +. ctx.p'.(u).(item);
        removed := !removed +. pcell.(u);
        let a = adj.(u) in
        for i = 0 to Array.length a - 1 do
          let v, e = a.(i) in
          if slot_free.(v) then
            if in_star.(v) then alg := !alg +. ctx.pair_w.(e).(item)
            else removed := !removed +. wedge.(e)
        done;
        pending := f;
        started := true
      end
    done;
    if !started then begin
      let score = !alg -. (r *. !removed) in
      if (not scratch.best_found) || score > scratch.best.(0) then begin
        scratch.best_found <- true;
        scratch.best.(0) <- score;
        scratch.best.(1) <- !pending
      end
    end;
    (* Reset scratch state. *)
    for i = 0 to !nstar - 1 do
      in_star.(star.(i)) <- false
    done;
    scratch.star_n <- 0
  end

(* The derandomized iteration of the seed implementation
   (test/oracles/avg_d_reference.ml), except that (a) the initial m·k
   candidate sweep fans out across domains (read-only state, private
   scratch per worker), and (b) the per-iteration argmax keeps one
   champion per slot instead of rescanning the whole m·k cache.

   Champion maintenance is fused into the dirty-candidate
   recomputation an assignment already performs: the same-slot sweep
   recomputes every candidate of that slot, so its champion is refolded
   during the sweep for free; the same-item recomputes touch other
   slots' champions, where a per-slot guard — an upper bound on every
   non-champion score, only raised between rescans — lets a recomputed
   champion that stays strictly above the guard keep its seat without
   an O(m) rescan. Rescans therefore only happen when a sitting
   champion's fresh score no longer strictly dominates the guard (ties
   included, so the lowest-index tie-break of the reference scan is
   preserved exactly). The final argmax is a k-way compare of the
   champions. *)
let avg_d ?(r = 0.25) ?size_cap ?domains inst relax =
  if Instance.lambda inst = 0.0 && size_cap = None then top_k_greedy inst
  else
    let n = Instance.n inst in
    let m = Instance.m inst
    and k = Instance.k inst in
    let ctx = make_ctx ?size_cap ~r inst relax in
    (* Force the per-state lazy user ordering before fanning out. *)
    ignore (Csf.sorted_users ctx.state 0);
    (* Flat candidate cache (-inf score = no candidate), written
       straight off the hot evaluator's scratch fields: champion folds
       and rescans touch unboxed float arrays, and no candidate
       options/records are ever built on the avg_d path. *)
    let score = Array.make (m * k) neg_infinity in
    let alpha = Array.make (m * k) nan in
    Pool.parallel_for_local ?domains (m * k)
      ~local:(fun () -> make_scratch n)
      (fun scratch idx ->
        prepare_slot ctx scratch ~slot:(idx mod k);
        evaluate_pair_hot ctx scratch ~item:(idx / k) ~slot:(idx mod k);
        score.(idx) <- scratch.best.(0);
        alpha.(idx) <- scratch.best.(1));
    (* champ.(s): cache index of the slot maximum (lowest index on
       ties), -1 when the slot has no candidate. guard.(s): upper bound
       on every non-champion score of the slot; it may drift high
       between rescans but never under-estimates, so
       [score.(champ.(s)) > guard.(s)] proves the champion's seat. *)
    let champ = Array.make k (-1) in
    let guard = Array.make k neg_infinity in
    let fold_entry s idx =
      let sc = score.(idx) in
      if sc > neg_infinity then begin
        let b = champ.(s) in
        if b < 0 then champ.(s) <- idx
        else if sc > score.(b) || (sc = score.(b) && idx < b) then begin
          champ.(s) <- idx;
          guard.(s) <- Float.max guard.(s) score.(b)
        end
        else guard.(s) <- Float.max guard.(s) sc
      end
    in
    let rescan_slot s =
      champ.(s) <- -1;
      guard.(s) <- neg_infinity;
      for c = 0 to m - 1 do
        fold_entry s ((c * k) + s)
      done
    in
    for s = 0 to k - 1 do
      rescan_slot s
    done;
    let scratch = make_scratch n in
    let recompute_raw idx =
      prepare_slot ctx scratch ~slot:(idx mod k);
      evaluate_pair_hot ctx scratch ~item:(idx / k) ~slot:(idx mod k);
      score.(idx) <- scratch.best.(0);
      alpha.(idx) <- scratch.best.(1)
    in
    let recompute idx =
      recompute_raw idx;
      let s = idx mod k in
      if champ.(s) = idx then begin
        (* The sitting champion changed. Its fresh score still wins the
           slot if it strictly beats the guard; otherwise (including
           ties, which must resolve to the lowest index) re-establish
           the slot maximum from the cache. *)
        if not (score.(idx) > guard.(s)) then rescan_slot s
      end
      else fold_entry s idx
    in
    let pick_best () =
      let best = ref (-1) in
      for s = 0 to k - 1 do
        let idx = champ.(s) in
        if
          idx >= 0
          && (!best < 0
             || score.(idx) > score.(!best)
             || (score.(idx) = score.(!best) && idx < !best))
        then best := idx
      done;
      !best
    in
    let finished = ref false in
    while not !finished do
      if Csf.complete ctx.state then finished := true
      else begin
        let best_idx = pick_best () in
        if best_idx < 0 then begin
          (* No candidate has an eligible user — only possible through
             a size-cap lockout; complete greedily. *)
          Csf.greedy_complete ctx.state;
          finished := true
        end
        else begin
          let idx = best_idx in
          let c = idx / k and s = idx mod k in
          let assigned = Csf.apply ctx.state ~item:c ~slot:s ~alpha:alpha.(idx) in
          if assigned = [] then recompute idx
          else begin
            (* Invalidate exactly the pairs whose eligibility or
               future-mass terms changed: same slot (any item),
               same item (any slot). The same-slot sweep touches
               every candidate of slot [s], so its champion is
               refolded inline instead of by a separate rescan. *)
            champ.(s) <- -1;
            guard.(s) <- neg_infinity;
            prepare_slot ctx scratch ~slot:s;
            for c' = 0 to m - 1 do
              let idx' = (c' * k) + s in
              evaluate_pair_hot ctx scratch ~item:c' ~slot:s;
              score.(idx') <- scratch.best.(0);
              alpha.(idx') <- scratch.best.(1);
              fold_entry s idx'
            done;
            for s' = 0 to k - 1 do
              if s' <> s then recompute ((c * k) + s')
            done
          end
        end
      end
    done;
    Csf.to_config ctx.state

(* ------------------------------------------------------------------ *)
(* Bench hook: one Csf slot-eval sweep in isolation                    *)
(* ------------------------------------------------------------------ *)

module Slot_eval = struct
  type t = {
    ctx : avg_d_ctx;
    scratch : scratch;
    score : float array;
    alpha : float array;
  }

  let create ?(r = 0.25) inst relax =
    let ctx = make_ctx ~r inst relax in
    (* Force the lazy per-item user ordering so the sweep never hits a
       thunk. *)
    ignore (Csf.sorted_users ctx.state 0);
    let m = Instance.m inst in
    {
      ctx;
      scratch = make_scratch (Instance.n inst);
      score = Array.make m neg_infinity;
      alpha = Array.make m nan;
    }

  let sweep t ~slot =
    let m = Instance.m (Csf.instance t.ctx.state) in
    prepare_slot t.ctx t.scratch ~slot;
    for c = 0 to m - 1 do
      evaluate_pair_hot t.ctx t.scratch ~item:c ~slot;
      t.score.(c) <- t.scratch.best.(0);
      t.alpha.(c) <- t.scratch.best.(1)
    done
end

(* ------------------------------------------------------------------ *)
(* Independent rounding (Algorithm 1, kept as a counter-example)       *)
(* ------------------------------------------------------------------ *)

let independent_rounding rng inst relax =
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  Array.init n (fun u ->
      let probs =
        Svgic_util.Select.normalize
          (Array.init m (fun c -> Float.max 0.0 (Relaxation.factor inst relax u c)))
      in
      Array.init k (fun _ -> Rng.pick_weighted rng probs))
