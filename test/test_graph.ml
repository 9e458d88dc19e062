(* Tests for the social-graph substrate. *)

module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Community = Svgic_graph.Community
module Rng = Svgic_util.Rng

let test_of_edges_basics () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 0); (0, 1); (2, 2); (1, 2) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "edges deduped, self-loop dropped" 3 (Graph.num_edges g);
  Alcotest.(check bool) "has 0->1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "no 2->1" false (Graph.has_edge g 2 1);
  Alcotest.(check (array (pair int int))) "pairs" [| (0, 1); (1, 2) |] (Graph.pairs g);
  Alcotest.(check (array int)) "out 1" [| 0; 2 |] (Graph.out_neighbors g 1);
  Alcotest.(check (array int)) "in 1" [| 0 |] (Graph.in_neighbors g 1);
  Alcotest.(check (array int)) "und 1" [| 0; 2 |] (Graph.neighbors_undirected g 1)

let test_of_edges_rejects_bad () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 5) ]))

let test_density () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 0); (2, 3) ] in
  (* 2 pairs out of 6 possible. *)
  Alcotest.(check (float 1e-9)) "density" (2.0 /. 6.0) (Graph.density g);
  let empty = Graph.of_edges ~n:1 [] in
  Alcotest.(check (float 1e-9)) "singleton density" 0.0 (Graph.density empty)

let test_induced_density () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (0, 2); (3, 4) ] in
  Alcotest.(check (float 1e-9)) "triangle" 1.0 (Graph.induced_density g [| 0; 1; 2 |]);
  Alcotest.(check (float 1e-9)) "pair + isolated" (1.0 /. 3.0)
    (Graph.induced_density g [| 0; 3; 4 |]);
  Alcotest.(check int) "induced pair count" 3 (Graph.induced_pair_count g [| 0; 1; 2 |])

let test_ego_and_subgraph () =
  (* Path 0-1-2-3-4. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 3); (3, 2); (3, 4); (4, 3) ] in
  Alcotest.(check (array int)) "2-hop ego of 0" [| 0; 1; 2 |] (Graph.ego g ~center:0 ~hops:2);
  let sub, mapping = Graph.subgraph g [| 1; 2; 3 |] in
  Alcotest.(check int) "sub n" 3 (Graph.n sub);
  Alcotest.(check (array int)) "mapping" [| 1; 2; 3 |] mapping;
  Alcotest.(check (array (pair int int))) "sub pairs" [| (0, 1); (1, 2) |] (Graph.pairs sub);
  List.iter
    (fun members ->
      Alcotest.check_raises "out-of-range member"
        (Invalid_argument "Graph.subgraph: member out of range") (fun () ->
          ignore (Graph.subgraph g members)))
    [ [| 1; 5 |]; [| -1; 2 |] ]

let test_connected_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  let comps = Graph.connected_components g in
  let sizes = Array.to_list comps |> List.map List.length |> List.sort compare in
  Alcotest.(check (list int)) "component sizes" [ 1; 2; 3 ] sizes

let test_erdos_renyi () =
  let rng = Rng.create 1 in
  let g = Generate.erdos_renyi rng ~n:60 ~p:0.2 in
  Alcotest.(check int) "n" 60 (Graph.n g);
  let d = Graph.density g in
  Alcotest.(check bool) (Printf.sprintf "density near p (%.3f)" d) true
    (Float.abs (d -. 0.2) < 0.05);
  (* Reciprocal by default. *)
  Array.iter
    (fun (u, v) ->
      Alcotest.(check bool) "reciprocal" true (Graph.has_edge g u v && Graph.has_edge g v u))
    (Graph.pairs g)

let test_erdos_renyi_directed () =
  let rng = Rng.create 2 in
  let g = Generate.erdos_renyi ~reciprocal:false rng ~n:40 ~p:0.2 in
  Alcotest.(check int) "one direction per pair" (Array.length (Graph.pairs g))
    (Graph.num_edges g)

let test_barabasi_albert () =
  let rng = Rng.create 3 in
  let g = Generate.barabasi_albert rng ~n:80 ~attach:3 in
  Alcotest.(check int) "n" 80 (Graph.n g);
  (* Every late vertex connects. *)
  for u = 4 to 79 do
    Alcotest.(check bool) "attached" true (Graph.degree_undirected g u >= 1)
  done;
  (* Heavy tail: some hub should clearly beat the attach parameter. *)
  let max_degree = ref 0 in
  for u = 0 to 79 do
    max_degree := max !max_degree (Graph.degree_undirected g u)
  done;
  Alcotest.(check bool) "hub exists" true (!max_degree >= 10)

let test_watts_strogatz () =
  let rng = Rng.create 4 in
  let g = Generate.watts_strogatz rng ~n:50 ~neighbors:2 ~beta:0.1 in
  Alcotest.(check int) "n" 50 (Graph.n g);
  let pairs = Array.length (Graph.pairs g) in
  (* Ring lattice has n*neighbors pairs; rewiring can only collide a
     few. *)
  Alcotest.(check bool) "pair count near lattice" true (pairs >= 90 && pairs <= 100)

let test_planted_partition () =
  let rng = Rng.create 5 in
  let g, labels = Generate.planted_partition rng ~n:60 ~communities:3 ~p_in:0.5 ~p_out:0.02 in
  Alcotest.(check int) "labels length" 60 (Array.length labels);
  Array.iter (fun l -> Alcotest.(check bool) "label range" true (l >= 0 && l < 3)) labels;
  (* Intra-block pairs should dominate. *)
  let intra = ref 0 and inter = ref 0 in
  Array.iter
    (fun (u, v) -> if labels.(u) = labels.(v) then incr intra else incr inter)
    (Graph.pairs g);
  Alcotest.(check bool) "communities visible" true (!intra > 3 * !inter)

let test_random_walk_sample () =
  let rng = Rng.create 6 in
  let g = Generate.barabasi_albert rng ~n:100 ~attach:2 in
  let sample = Generate.random_walk_sample rng g ~size:30 in
  Alcotest.(check int) "size" 30 (Array.length sample);
  let distinct = List.sort_uniq compare (Array.to_list sample) in
  Alcotest.(check int) "distinct" 30 (List.length distinct)

let two_cliques_bridge () =
  let clique offset =
    List.concat
      (List.init 5 (fun i ->
           List.init 5 (fun j ->
               if i <> j then [ (offset + i, offset + j) ] else [])))
    |> List.concat
  in
  Graph.of_edges ~n:10 (clique 0 @ clique 5 @ [ (4, 5); (5, 4) ])

let test_greedy_modularity () =
  let g = two_cliques_bridge () in
  let labels = Community.greedy_modularity g in
  let count = Array.fold_left (fun acc l -> max acc (l + 1)) 0 labels in
  Alcotest.(check int) "two communities" 2 count;
  Alcotest.(check bool) "separated" true (labels.(0) <> labels.(9));
  let q = Community.modularity g labels in
  Alcotest.(check bool) "good modularity" true (q > 0.3)

let test_modularity_bounds () =
  let g = two_cliques_bridge () in
  let all_same = Array.make 10 0 in
  Alcotest.(check (float 1e-9)) "single community Q" 0.0
    (Community.modularity g all_same);
  let singletons = Array.init 10 (fun i -> i) in
  Alcotest.(check bool) "singletons Q negative" true
    (Community.modularity g singletons < 0.0)

let test_balanced_partition () =
  let rng = Rng.create 8 in
  let g = two_cliques_bridge () in
  let labels = Community.balanced_partition rng g ~parts:3 in
  let groups = Community.groups_of_labels labels in
  Alcotest.(check int) "three parts" 3 (Array.length groups);
  Array.iter
    (fun members ->
      Alcotest.(check bool) "size within ceiling" true (Array.length members <= 4))
    groups;
  let total = Array.fold_left (fun acc g -> acc + Array.length g) 0 groups in
  Alcotest.(check int) "covers everyone" 10 total

let test_groups_of_labels () =
  let groups = Community.groups_of_labels [| 2; 0; 2; 1 |] in
  Alcotest.(check int) "count" 3 (Array.length groups);
  (* compact_labels maps first-seen label to 0. *)
  Alcotest.(check (array int)) "group of first label" [| 0; 2 |] groups.(0)

let qcheck_props =
  let open QCheck in
  let edge_list_gen =
    Gen.(
      let* n = int_range 2 15 in
      let* edges = list_size (int_range 0 40) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, edges))
  in
  [
    Test.make ~name:"pairs are consistent with edges" ~count:80 (make edge_list_gen)
      (fun (n, edges) ->
        let g = Graph.of_edges ~n edges in
        Array.for_all
          (fun (u, v) -> u < v && (Graph.has_edge g u v || Graph.has_edge g v u))
          (Graph.pairs g));
    Test.make ~name:"undirected degree counts pairs" ~count:80 (make edge_list_gen)
      (fun (n, edges) ->
        let g = Graph.of_edges ~n edges in
        let total = ref 0 in
        for u = 0 to n - 1 do
          total := !total + Graph.degree_undirected g u
        done;
        !total = 2 * Array.length (Graph.pairs g));
    (* Against a brute-force filter of the full edge list, in both
       directions (no kept edge lost, none invented), for a random
       member set given sorted and shuffled. *)
    Test.make ~name:"subgraph preserves adjacency" ~count:60
      (make Gen.(pair edge_list_gen (int_bound 1_000_000)))
      (fun ((n, edges), seed) ->
        let g = Graph.of_edges ~n edges in
        let rng = Rng.create seed in
        let sorted =
          Array.of_list (List.filter (fun _ -> Rng.bool rng) (List.init n Fun.id))
        in
        let shuffled = Array.copy sorted in
        Rng.shuffle rng shuffled;
        List.for_all
          (fun keep ->
            let sub, mapping = Graph.subgraph g keep in
            let pos = Hashtbl.create 16 in
            Array.iteri (fun i v -> Hashtbl.replace pos v i) keep;
            let want =
              List.sort compare
                (List.filter_map
                   (fun (u, v) ->
                     match (Hashtbl.find_opt pos u, Hashtbl.find_opt pos v) with
                     | Some a, Some b -> Some (a, b)
                     | _ -> None)
                   (Array.to_list (Graph.edges g)))
            in
            Graph.n sub = Array.length keep
            && mapping = keep
            && List.sort compare (Array.to_list (Graph.edges sub)) = want)
          [ sorted; shuffled ]);
  ]

let suite =
  [
    Alcotest.test_case "of_edges basics" `Quick test_of_edges_basics;
    Alcotest.test_case "of_edges validation" `Quick test_of_edges_rejects_bad;
    Alcotest.test_case "density" `Quick test_density;
    Alcotest.test_case "induced density" `Quick test_induced_density;
    Alcotest.test_case "ego + subgraph" `Quick test_ego_and_subgraph;
    Alcotest.test_case "connected components" `Quick test_connected_components;
    Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
    Alcotest.test_case "erdos-renyi directed" `Quick test_erdos_renyi_directed;
    Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
    Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz;
    Alcotest.test_case "planted partition" `Quick test_planted_partition;
    Alcotest.test_case "random-walk sample" `Quick test_random_walk_sample;
    Alcotest.test_case "greedy modularity" `Quick test_greedy_modularity;
    Alcotest.test_case "modularity bounds" `Quick test_modularity_bounds;
    Alcotest.test_case "balanced partition" `Quick test_balanced_partition;
    Alcotest.test_case "groups of labels" `Quick test_groups_of_labels;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
