(* Ground truth for greedy modularity: the CNM agglomeration against the
   exact full-rescan oracle, the local-optimum property of its result,
   and the labelling the plan_unlabelled benchmark graph has always
   received. *)

module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Community = Svgic_graph.Community
module Rescan = Svgic_oracles.Community_rescan
module Rng = Svgic_util.Rng

let clique_edges offset size =
  List.concat (List.init size (fun i -> List.init i (fun j -> (offset + j, offset + i))))

let star ~n ~center =
  Graph.of_edges ~n
    (List.filter_map (fun v -> if v = center then None else Some (center, v)) (List.init n Fun.id))

let edge_cases =
  [
    ("empty graph", Graph.of_edges ~n:0 []);
    ("no pairs", Graph.of_edges ~n:6 []);
    ("one pair", Graph.of_edges ~n:2 [ (0, 1) ]);
    ("one pair among isolated vertices", Graph.of_edges ~n:5 [ (3, 1) ]);
    ( "isolated vertices beside two triangles",
      Graph.of_edges ~n:9 (clique_edges 1 3 @ clique_edges 5 3) );
    ("star, center first", star ~n:12 ~center:0);
    ("star, center last", star ~n:12 ~center:11);
    ("star, center inside", star ~n:15 ~center:7);
    ( "two cliques joined by a bridge",
      Graph.of_edges ~n:10 (clique_edges 0 5 @ clique_edges 5 5 @ [ (4, 5) ]) );
    ("complete graph", Graph.of_edges ~n:7 (clique_edges 0 7));
    ("path", Graph.of_edges ~n:9 (List.init 8 (fun i -> (i, i + 1))));
  ]

(* 120 seeded graphs over every generator, plus the edge cases: sizes
   the cubic oracle finishes in milliseconds. *)
let graphs =
  let seeded name count make =
    List.init count (fun s ->
        (Printf.sprintf "%s seed %d" name s, make (Rng.create (7100 + (97 * s))) s))
  in
  List.concat
    [
      seeded "erdos-renyi" 20 (fun rng s ->
          Generate.erdos_renyi rng ~n:(16 + (3 * s)) ~p:(0.06 +. (0.01 *. float (s mod 5))));
      seeded "erdos-renyi one-directional" 20 (fun rng s ->
          Generate.erdos_renyi ~reciprocal:false rng ~n:(20 + (3 * s)) ~p:0.08);
      seeded "barabasi-albert" 20 (fun rng s ->
          Generate.barabasi_albert rng ~n:(20 + (3 * s)) ~attach:(1 + (s mod 3)));
      seeded "watts-strogatz" 20 (fun rng s ->
          Generate.watts_strogatz rng ~n:(20 + (3 * s)) ~neighbors:(1 + (s mod 3))
            ~beta:(0.05 *. float (s mod 6)));
      seeded "planted" 20 (fun rng s ->
          fst
            (Generate.planted_partition rng ~n:(24 + (3 * s)) ~communities:(2 + (s mod 5))
               ~p_in:0.3 ~p_out:0.02));
      seeded "timik-like" 20 (fun rng s ->
          fst
            (Generate.timik_like rng ~n:(30 + (4 * s)) ~communities:(2 + (s mod 4)) ~attach:2
               ~cross_frac:0.05));
      edge_cases;
    ]

let community_count labels = Array.fold_left (fun acc l -> max acc (l + 1)) 0 labels

(* Largest merge gain 2p·L_ab − D_a·D_b over adjacent communities of a
   labelling, computed independently of either implementation; None
   when no two communities touch. *)
let best_merge_gain g labels =
  let p = Graph.num_pairs g in
  let degree = Array.make (community_count labels) 0 in
  Array.iteri
    (fun v l -> degree.(l) <- degree.(l) + Graph.degree_undirected g v)
    labels;
  let joins = Hashtbl.create 64 in
  Graph.iteri_pairs g (fun _ u v ->
      let a = labels.(u) and b = labels.(v) in
      if a <> b then begin
        let key = (min a b, max a b) in
        Hashtbl.replace joins key (1 + Option.value ~default:0 (Hashtbl.find_opt joins key))
      end);
  Hashtbl.fold
    (fun (a, b) l acc ->
      let gain = (2 * p * l) - (degree.(a) * degree.(b)) in
      match acc with Some best when best >= gain -> acc | _ -> Some gain)
    joins None

let test_matches_rescan () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check (array int)) name (Rescan.greedy_modularity g)
        (Community.greedy_modularity g))
    graphs;
  Alcotest.(check bool) ">= 100 graphs" true (List.length graphs >= 100)

let test_local_optimum () =
  let larger =
    [
      ( "timik-like 3000",
        fst
          (Generate.timik_like (Rng.create 31) ~n:3000 ~communities:30 ~attach:2
             ~cross_frac:0.05) );
      ( "planted 600, weak structure",
        fst
          (Generate.planted_partition (Rng.create 32) ~n:600 ~communities:6 ~p_in:0.03
             ~p_out:0.01) );
    ]
  in
  List.iter
    (fun (name, g) ->
      match best_merge_gain g (Community.greedy_modularity g) with
      | Some gain when gain > 0 ->
          Alcotest.failf "%s: adjacent communities still gain %d from merging" name gain
      | Some _ | None -> ())
    (graphs @ larger)

let test_edge_cases () =
  let labels name = Community.greedy_modularity (List.assoc name edge_cases) in
  Alcotest.(check (array int)) "empty graph" [||] (labels "empty graph");
  Alcotest.(check (array int)) "no pairs: singletons" [| 0; 1; 2; 3; 4; 5 |] (labels "no pairs");
  Alcotest.(check (array int))
    "one pair merges, isolated vertices stay alone" [| 0; 1; 2; 1; 3 |]
    (labels "one pair among isolated vertices");
  Alcotest.(check (array int)) "star: one community" (Array.make 12 0)
    (labels "star, center first");
  Alcotest.(check (array int))
    "two cliques" [| 0; 0; 0; 0; 0; 1; 1; 1; 1; 1 |]
    (labels "two cliques joined by a bridge")

(* The float modularity and the exact integer one agree on every
   result, so the integer gain really is 2p²·ΔQ. *)
let test_scaled_modularity () =
  List.iter
    (fun (name, g) ->
      let p = Graph.num_pairs g in
      if p > 0 then begin
        let labels = Community.greedy_modularity g in
        Alcotest.(check (float 1e-12)) name
          (float (Rescan.scaled_modularity g labels) /. float (4 * p * p))
          (Community.modularity g labels)
      end)
    graphs

(* The labelling the full rescan gave the plan_unlabelled benchmark
   graph (240 users, 8 planted communities). *)
let plan_unlabelled_labels =
  [| 0; 1; 2; 3; 4; 5; 6; 2; 4; 4; 6; 3; 0; 6; 0; 2; 4; 6; 3; 6; 0; 0; 1; 2; 5; 7; 3; 3; 6;
     5; 1; 2; 2; 6; 4; 6; 3; 5; 5; 4; 0; 3; 2; 1; 1; 0; 7; 6; 0; 7; 3; 3; 4; 6; 0; 2; 7; 3;
     5; 7; 0; 1; 1; 0; 5; 5; 7; 4; 0; 6; 1; 0; 2; 1; 5; 6; 0; 5; 6; 3; 6; 1; 6; 0; 7; 5; 6;
     4; 2; 4; 4; 5; 4; 7; 0; 4; 1; 1; 5; 5; 7; 2; 7; 6; 4; 5; 2; 5; 2; 2; 3; 3; 5; 4; 7; 4;
     6; 0; 4; 4; 6; 2; 2; 7; 3; 1; 7; 5; 6; 0; 5; 7; 6; 1; 5; 5; 0; 7; 6; 3; 0; 1; 3; 3; 1;
     6; 0; 3; 7; 7; 3; 7; 5; 7; 6; 5; 2; 2; 3; 1; 1; 3; 0; 4; 2; 7; 5; 3; 6; 2; 4; 5; 3; 4;
     7; 4; 7; 7; 0; 3; 5; 1; 1; 0; 1; 4; 1; 1; 7; 1; 5; 4; 7; 6; 3; 2; 2; 7; 2; 4; 1; 4; 1;
     7; 1; 7; 1; 6; 2; 4; 0; 0; 5; 2; 6; 2; 2; 6; 7; 2; 0; 5; 3; 6; 7; 7; 4; 0; 2; 0; 5; 2;
     3; 7; 7; 0; 6; 1; 4; 1 |]

let test_benchmark_graph_pin () =
  let g, _ =
    Generate.planted_partition (Rng.create 240) ~n:240 ~communities:8 ~p_in:0.2 ~p_out:0.003
  in
  let labels = Community.greedy_modularity g in
  Alcotest.(check (array int)) "labels" plan_unlabelled_labels labels;
  let cut = ref 0 in
  Graph.iteri_pairs g (fun _ u v -> if labels.(u) <> labels.(v) then incr cut);
  Alcotest.(check int) "communities" 8 (community_count labels);
  Alcotest.(check int) "cut pairs" 100 !cut

(* A cubic detector needs hours here; CNM needs well under a second. *)
let test_scale_guard () =
  let g, _ =
    Generate.timik_like (Rng.create 20_000) ~n:20_000 ~communities:200 ~attach:2
      ~cross_frac:0.02
  in
  let labels = Community.greedy_modularity g in
  Alcotest.(check int) "every user labelled" 20_000 (Array.length labels);
  Alcotest.(check bool) "communities found" true (community_count labels > 1);
  Alcotest.(check bool) "positive modularity" true (Community.modularity g labels > 0.5)

let suite =
  [
    Alcotest.test_case "CNM = exact rescan (131 graphs)" `Quick test_matches_rescan;
    Alcotest.test_case "local optimum" `Quick test_local_optimum;
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "integer gain = modularity" `Quick test_scaled_modularity;
    Alcotest.test_case "plan_unlabelled graph pinned" `Quick test_benchmark_graph_pin;
    Alcotest.test_case "20k-user scale guard" `Quick test_scale_guard;
  ]
