(* Shared fixtures for the core test suites. *)

module Rng = Svgic_util.Rng
module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Instance = Svgic.Instance

(* A small random instance with dense-ish social structure; sizes stay
   tiny so the exact paths (simplex LP, IP, exhaustive) remain fast. *)
let random_instance ?(lambda = 0.5) rng ~n ~m ~k =
  let g = Generate.erdos_renyi rng ~n ~p:0.5 in
  let pref = Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0)) in
  let tau_table = Hashtbl.create 16 in
  Array.iter
    (fun (u, v) ->
      Hashtbl.replace tau_table (u, v) (Array.init m (fun _ -> Rng.float rng 0.5)))
    (Graph.edges g);
  let tau u v c =
    match Hashtbl.find_opt tau_table (u, v) with
    | Some row -> row.(c)
    | None -> 0.0
  in
  Instance.create ~graph:g ~m ~k ~lambda ~pref ~tau

(* Uniform utilities on flat arenas over a generated graph, as the
   serving and plan workloads draw them: p ~ U(0,1), τ ~ U(0,0.5). *)
let arenas_instance rng g ~m ~k =
  let pref = Float.Array.init (Graph.n g * m) (fun _ -> Rng.float rng 1.0) in
  let tau =
    Float.Array.init (Graph.num_edges g * m) (fun _ -> Rng.float rng 0.5)
  in
  Instance.of_flat ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau

let paper_instance ?lambda () = Svgic.Example_paper.instance ?lambda ()

(* Paper-scaled utility (λ = 1/2, scaled by 2). *)
let paper_value inst cfg =
  Svgic.Example_paper.paper_scale *. Svgic.Config.total_utility inst cfg
