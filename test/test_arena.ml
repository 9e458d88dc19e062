(* Tests for the flat-arena instance representation: zero-copy shard
   views vs materialized copies (bit-identical through the full
   sharded solve, including degraded shards), the streaming serializer,
   the iterative union-find at depth, and the pool's bounded chunking. *)

module Rng = Svgic_util.Rng
module Pool = Svgic_util.Pool
module Supervise = Svgic_util.Supervise
module Union_find = Svgic_util.Union_find
module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Instance = Svgic.Instance
module Config = Svgic.Config
module Shard = Svgic.Shard
module Serialize = Svgic.Serialize

(* Community-structured instance built on the flat generator, so the
   partitions below have several non-trivial shards plus a cut. *)
let timik_instance rng ~n ~communities ~m ~k =
  let g, labels =
    Generate.timik_like rng ~n ~communities ~attach:2 ~cross_frac:0.05
  in
  let pref =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let tau_row = Hashtbl.create (2 * Graph.num_edges g) in
  Array.iter
    (fun (u, v) ->
      Hashtbl.replace tau_row (u, v) (Array.init m (fun _ -> Rng.float rng 0.5)))
    (Graph.edges g);
  let tau u v c =
    match Hashtbl.find_opt tau_row (u, v) with
    | Some row -> row.(c)
    | None -> 0.0
  in
  (Instance.create ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau, labels)

let check_inst_equal label a b =
  Alcotest.(check int) (label ^ " n") (Instance.n a) (Instance.n b);
  Alcotest.(check int) (label ^ " edges") (Instance.num_edges a)
    (Instance.num_edges b);
  Alcotest.(check int) (label ^ " pairs") (Instance.num_pairs a)
    (Instance.num_pairs b);
  let n = Instance.n a and m = Instance.m a in
  for u = 0 to n - 1 do
    for c = 0 to m - 1 do
      if Instance.pref a u c <> Instance.pref b u c then
        Alcotest.failf "%s: pref(%d,%d) differs" label u c
    done
  done;
  Instance.iter_edges a (fun e u v ->
      if Instance.edge_u b e <> u || Instance.edge_v b e <> v then
        Alcotest.failf "%s: edge %d differs" label e;
      for c = 0 to m - 1 do
        if Instance.tau_edge a e c <> Instance.tau_edge b e c then
          Alcotest.failf "%s: tau(edge %d,%d) differs" label e c
      done);
  Instance.iter_pairs a (fun i u v ->
      if Instance.pair_fst b i <> u || Instance.pair_snd b i <> v then
        Alcotest.failf "%s: pair %d differs" label i;
      for c = 0 to m - 1 do
        if Instance.pair_weight a i c <> Instance.pair_weight b i c then
          Alcotest.failf "%s: pair_weight(%d,%d) differs" label i c
      done)

(* Views vs materialized copies, value for value and bit for bit: the
   same shard data must be visible through both representations, and a
   full solve_round must not be able to tell them apart — same RNG
   streams, same objective, same stitched configuration. Odd seeds run
   with an expired token so every shard takes the degraded greedy rung;
   the equivalence must survive the ladder too. *)
let test_view_equivalence () =
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let inst, labels = timik_instance rng ~n:60 ~communities:4 ~m:4 ~k:2 in
    let part = Shard.partition ~labelling:(Shard.Labels labels) inst in
    let mat = Shard.materialize_shards part in
    Alcotest.(check bool)
      "views are views" true
      (Array.for_all (fun s -> Instance.is_view s.Shard.inst) part.Shard.shards
      || Array.length part.Shard.shards = 0);
    Array.iteri
      (fun s shard ->
        check_inst_equal
          (Printf.sprintf "seed %d shard %d" seed s)
          shard.Shard.inst mat.Shard.shards.(s).Shard.inst)
      part.Shard.shards;
    let token =
      if seed mod 2 = 1 then Some (Supervise.expired_token ()) else None
    in
    let solve p =
      Shard.solve_round ?token
        ~rounding:(Shard.Avg { repeats = 2; advanced_sampling = true })
        (Rng.create (100 + seed))
        p
    in
    let rv = solve part and rm = solve mat in
    Alcotest.(check (float 0.0))
      "objective" rm.Shard.objective rv.Shard.objective;
    Alcotest.(check (float 0.0)) "bound" rm.Shard.bound rv.Shard.bound;
    Alcotest.(check (array (float 0.0)))
      "shard objectives" rm.Shard.shard_objectives rv.Shard.shard_objectives;
    Alcotest.(check (array bool)) "degraded" rm.Shard.degraded rv.Shard.degraded;
    if token <> None then
      Alcotest.(check bool)
        "expired token degrades" true
        (Array.for_all Fun.id rv.Shard.degraded);
    for u = 0 to Instance.n inst - 1 do
      Alcotest.(check (array int))
        (Printf.sprintf "config row %d" u)
        (Config.row rm.Shard.config u)
        (Config.row rv.Shard.config u)
    done
  done

(* Zero-copy acceptance: a partition must cost O(n + edges) extra, not
   a copy of the arenas. Compare its allocation against materializing
   the same shards, which demonstrably does copy everything. *)
let test_partition_is_zero_copy () =
  let rng = Rng.create 7 in
  let inst, labels = timik_instance rng ~n:2000 ~communities:8 ~m:6 ~k:2 in
  (* The minor collection first makes [minor + major − promoted] count
     only the allocations between two calls: otherwise it also subtracts
     promotions of older objects, and the readings vary from run to run
     with the state the earlier tests left. *)
  let words () =
    Gc.minor ();
    let c = Gc.counters () in
    let minor, promoted, major = c in
    minor +. major -. promoted
  in
  let base = words () in
  let part = Shard.partition ~labelling:(Shard.Labels labels) inst in
  let part_words = words () -. base in
  let base = words () in
  let mat = Shard.materialize_shards part in
  let mat_words = words () -. base in
  ignore (Sys.opaque_identity mat);
  Alcotest.(check bool)
    (Printf.sprintf "partition allocates a fraction of materialize (%.0f vs %.0f)"
       part_words mat_words)
    true
    (part_words < mat_words /. 2.0)

(* Streaming writer/loader vs the in-memory pair: same bytes out, same
   instance back in, through a real file. *)
let test_streaming_round_trip () =
  let rng = Rng.create 42 in
  let inst, _ = timik_instance rng ~n:120 ~communities:5 ~m:3 ~k:2 in
  let path = Filename.temp_file "svgic_arena" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_instance path inst;
      Alcotest.(check string)
        "streamed bytes = in-memory bytes"
        (Serialize.instance_to_string inst)
        (Serialize.read_file path);
      match Serialize.load_instance path with
      | Error msg -> Alcotest.failf "load_instance: %s" msg
      | Ok back ->
          check_inst_equal "round trip" inst back;
          Alcotest.(check (float 0.0))
            "lambda" (Instance.lambda inst) (Instance.lambda back))

(* The loader's fast path assumes writer order; shuffled edge lines
   must fall back to the permuting path and still reproduce the
   instance exactly. *)
let test_loader_permuted_edges () =
  let rng = Rng.create 9 in
  let inst, _ = timik_instance rng ~n:40 ~communities:3 ~m:3 ~k:1 in
  let text = Serialize.instance_to_string inst in
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  let is_edge_header l = String.length l > 6 && String.sub l 0 6 = "edges " in
  let rec split acc = function
    | l :: tl when not (is_edge_header l) -> split (l :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let head, rest = split [] lines in
  match rest with
  | header :: edge_lines ->
      let shuffled =
        String.concat "\n" (head @ (header :: List.rev edge_lines)) ^ "\n"
      in
      (match Serialize.instance_of_string shuffled with
      | Error msg -> Alcotest.failf "permuted parse: %s" msg
      | Ok back -> check_inst_equal "permuted edges" inst back)
  | [] -> Alcotest.fail "no edges section in writer output"

(* A million-element chain is exactly the case that blew the stack of a
   recursive find; the iterative path-halving walk must also leave
   every touched parent pointing near the root. *)
let test_union_find_stress () =
  let n = 1_000_000 in
  let uf = Union_find.create n in
  for i = 0 to n - 2 do
    ignore (Union_find.union uf i (i + 1))
  done;
  Alcotest.(check int) "single component" 1 (Union_find.count uf);
  let root = Union_find.find uf 0 in
  Alcotest.(check int) "far end" root (Union_find.find uf (n - 1));
  for s = 0 to 9 do
    Alcotest.(check int) "sample" root (Union_find.find uf (s * (n / 10)))
  done

(* Bounded chunking: with n large enough to trigger the dynamic
   scheduler, every index must still run exactly once and by-index
   results must be identical across domain counts. *)
let test_pool_chunking () =
  let n = 50_000 in
  let expect = Array.init n (fun i -> float_of_int i *. 1.25 +. 0.5) in
  List.iter
    (fun domains ->
      let hits = Array.make n 0 in
      let got =
        Pool.parallel_map ~domains n (fun i ->
            hits.(i) <- hits.(i) + 1;
            (float_of_int i *. 1.25) +. 0.5)
      in
      Alcotest.(check bool)
        (Printf.sprintf "every index once (domains=%d)" domains)
        true
        (Array.for_all (( = ) 1) hits);
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical results (domains=%d)" domains)
        true (got = expect))
    [ 1; 2; 3; 8 ]

let suite =
  [
    Alcotest.test_case "views = materialized shards (20 seeds)" `Slow
      test_view_equivalence;
    Alcotest.test_case "partition is zero-copy" `Quick
      test_partition_is_zero_copy;
    Alcotest.test_case "streaming serialize round trip" `Quick
      test_streaming_round_trip;
    Alcotest.test_case "loader handles permuted edge lines" `Quick
      test_loader_permuted_edges;
    Alcotest.test_case "union-find million-element chain" `Quick
      test_union_find_stress;
    Alcotest.test_case "pool bounded chunking" `Quick test_pool_chunking;
  ]
