module Csf = Svgic.Csf
module Instance = Svgic.Instance

(* Candidate score for a focal pair (c, s): the best threshold
   α = x*(u,c,s) over eligible users, ranked by
       score = ALG(S_tar) - r · Δ_LP(S_tar)
   where Δ_LP is the part of OPT_LP(S_cur) removed by assigning the
   target subgroup. The global term r·OPT_LP(S_cur) is common to all
   candidates of an iteration and therefore dropped from the argmax. *)
type candidate = { score : float; alpha : float }

type ctx = {
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
  { state; p'; r; pcell; wedge; pair_w; adj = Array.map Array.of_list adj_lists }

(* Best threshold for a focal pair, [None] when no user is eligible.
   Users enter the target subgroup in decreasing factor order; a
   threshold is recorded once a strictly smaller factor appears (ties
   enter together), and of equal scores the earlier (higher) threshold
   keeps the seat. *)
let evaluate_pair ctx ~item ~slot =
  if Csf.locked ctx.state ~item ~slot then None
  else begin
    let n = Array.length ctx.pcell in
    let slot_free = Array.make n false in
    Csf.fill_slot_empty ctx.state ~slot slot_free;
    let facts = Csf.factors ctx.state in
    let in_star = Array.make n false in
    let alg = ref 0.0 and removed = ref 0.0 in
    let best = ref None and pending = ref None in
    let record alpha =
      let score = !alg -. (ctx.r *. !removed) in
      let better =
        match !best with None -> true | Some b -> score > b.score
      in
      if better then best := Some { score; alpha }
    in
    Array.iter
      (fun u ->
        if slot_free.(u) && not (Csf.item_used ctx.state ~user:u ~item) then begin
          let f = facts.(u).(item) in
          (match !pending with Some a when f < a -> record a | _ -> ());
          in_star.(u) <- true;
          alg := !alg +. ctx.p'.(u).(item);
          removed := !removed +. ctx.pcell.(u);
          Array.iter
            (fun (v, e) ->
              if slot_free.(v) then
                if in_star.(v) then alg := !alg +. ctx.pair_w.(e).(item)
                else removed := !removed +. ctx.wedge.(e))
            ctx.adj.(u);
          pending := Some f
        end)
      (Csf.sorted_users ctx.state item);
    Option.iter record !pending;
    !best
  end

let avg_d ?(r = 0.25) ?size_cap inst relax =
  if Instance.lambda inst = 0.0 && size_cap = None then
    Svgic.Algorithms.top_k_greedy inst
  else
    let m = Instance.m inst and k = Instance.k inst in
    let ctx = make_ctx ?size_cap ~r inst relax in
    let cache = Array.make (m * k) None in
    let recompute idx =
      cache.(idx) <- evaluate_pair ctx ~item:(idx / k) ~slot:(idx mod k)
    in
    for idx = 0 to (m * k) - 1 do
      recompute idx
    done;
    let finished = ref false in
    while not !finished do
      if Csf.complete ctx.state then finished := true
      else begin
        let best_idx = ref (-1) and best_score = ref neg_infinity in
        for idx = 0 to (m * k) - 1 do
          match cache.(idx) with
          | Some { score; _ } when score > !best_score ->
              best_idx := idx;
              best_score := score
          | Some _ | None -> ()
        done;
        if !best_idx < 0 then begin
          (* No candidate has an eligible user — only possible through a
             size-cap lockout; complete greedily. *)
          Csf.greedy_complete ctx.state;
          finished := true
        end
        else begin
          let idx = !best_idx in
          let c = idx / k and s = idx mod k in
          match cache.(idx) with
          | None -> assert false
          | Some { alpha; _ } ->
              let assigned = Csf.apply ctx.state ~item:c ~slot:s ~alpha in
              if assigned = [] then recompute idx
              else begin
                (* Invalidate exactly the pairs whose eligibility or
                   future-mass terms changed: same slot (any item), same
                   item (any slot). *)
                for c' = 0 to m - 1 do
                  recompute ((c' * k) + s)
                done;
                for s' = 0 to k - 1 do
                  recompute ((c * k) + s')
                done
              end
        end
      end
    done;
    Csf.to_config ctx.state
