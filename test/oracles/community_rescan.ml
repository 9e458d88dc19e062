(* Reference for [Community.greedy_modularity]: the original full
   rescan, in exact integer arithmetic.

   Every pass visits the community pairs joined by a friend pair, in
   pair-index order, scores the merge of each by recomputing the
   trial labelling's modularity from scratch, and applies the best
   strict improvement, so among equal gains the pair met first (the
   lowest joining pair index) wins. Modularity is kept as the integer
   4p²·Q = Σ_c (4p·e_c − d_c²) over p friend pairs, e_c pairs inside
   community c and d_c its summed degree, so no two candidates compare
   by rounding. O(p·(n + p)) per merge: small graphs only. *)

module Graph = Svgic_graph.Graph
module Community = Svgic_graph.Community

let scaled_modularity g labels =
  let n = Graph.n g and p = Graph.num_pairs g in
  let internal = Array.make n 0 and degree = Array.make n 0 in
  Graph.iteri_pairs g (fun _ u v ->
      if labels.(u) = labels.(v) then
        internal.(labels.(u)) <- internal.(labels.(u)) + 1);
  for v = 0 to n - 1 do
    degree.(labels.(v)) <- degree.(labels.(v)) + Graph.degree_undirected g v
  done;
  let q = ref 0 in
  for c = 0 to n - 1 do
    q := !q + (4 * p * internal.(c)) - (degree.(c) * degree.(c))
  done;
  !q

let greedy_modularity g =
  let labels = Array.init (Graph.n g) (fun i -> i) in
  let current = ref (scaled_modularity g labels) in
  let improved = ref (Graph.num_pairs g > 0) in
  while !improved do
    improved := false;
    let seen = Hashtbl.create 64 in
    let best_gain = ref 0 and best_pair = ref None in
    Graph.iteri_pairs g (fun _ u v ->
        let a = labels.(u) and b = labels.(v) in
        if a <> b && not (Hashtbl.mem seen (min a b, max a b)) then begin
          Hashtbl.replace seen (min a b, max a b) ();
          let trial = Array.map (fun l -> if l = b then a else l) labels in
          let gain = scaled_modularity g trial - !current in
          if gain > !best_gain then begin
            best_gain := gain;
            best_pair := Some (a, b)
          end
        end);
    match !best_pair with
    | Some (a, b) ->
        Array.iteri (fun v l -> if l = b then labels.(v) <- a) labels;
        current := !current + !best_gain;
        improved := true
    | None -> ()
  done;
  Community.compact_labels labels
