open Svgic_lp.Pairwise_fw
module Select = Svgic_util.Select

(* Logistic weight of the soft-min gradient, numerically stable. *)
let sigmoid z = if z >= 0.0 then 1.0 /. (1.0 +. exp (-.z)) else exp z /. (1.0 +. exp z)

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

let gradient p ~smoothing x grad =
  for u = 0 to p.n - 1 do
    Array.blit p.linear.(u) 0 grad.(u) 0 p.m
  done;
  Array.iter
    (fun (u, v, w) ->
      let xu = x.(u) and xv = x.(v) in
      let gu = grad.(u) and gv = grad.(v) in
      for c = 0 to p.m - 1 do
        if w.(c) <> 0.0 then begin
          let share_u = sigmoid ((xv.(c) -. xu.(c)) /. smoothing) in
          gu.(c) <- gu.(c) +. (w.(c) *. share_u);
          gv.(c) <- gv.(c) +. (w.(c) *. (1.0 -. share_u))
        end
      done)
    p.pairs;
  ()

(* Linear maximization oracle over the capped simplex: an indicator
   vector of the k largest gradient coordinates. *)
let oracle p grad_row vertex =
  let top = Select.top_k p.k grad_row in
  Array.fill vertex 0 p.m 0.0;
  Array.iter (fun c -> vertex.(c) <- 1.0) top

let solve ?(iterations = 400) ?(smoothing = 0.05) p =
  assert (p.k >= 1 && p.k <= p.m);
  assert (smoothing > 0.0);
  let x = Array.init p.n (fun _ -> Array.make p.m (float_of_int p.k /. float_of_int p.m)) in
  let grad = Array.init p.n (fun _ -> Array.make p.m 0.0) in
  let vertex = Array.make p.m 0.0 in
  let best = Array.init p.n (fun u -> Array.copy x.(u)) in
  let best_obj = ref (objective p x) in
  for t = 0 to iterations - 1 do
    gradient p ~smoothing x grad;
    let gamma = 2.0 /. float_of_int (t + 2) in
    for u = 0 to p.n - 1 do
      oracle p grad.(u) vertex;
      let xu = x.(u) in
      for c = 0 to p.m - 1 do
        xu.(c) <- ((1.0 -. gamma) *. xu.(c)) +. (gamma *. vertex.(c))
      done
    done;
    let obj = objective p x in
    if obj > !best_obj then begin
      best_obj := obj;
      for u = 0 to p.n - 1 do
        Array.blit x.(u) 0 best.(u) 0 p.m
      done
    end
  done;
  { x = best; objective = !best_obj; iterations; gap = infinity;
    ub = infinity; timed_out = false }
