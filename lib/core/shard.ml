module Graph = Svgic_graph.Graph
module Community = Svgic_graph.Community
module Rng = Svgic_util.Rng
module Pool = Svgic_util.Pool
module Supervise = Svgic_util.Supervise
module Fault = Svgic_util.Fault

type labelling =
  | Components
  | Modularity
  | Balanced of int
  | Labels of int array

type shard = { inst : Instance.t; users : int array }

type partition = {
  source : Instance.t;
  shards : shard array;
  cut_pairs : (int * int) array;
  cut_mass : float;
}

let labels_of inst rng = function
  | Components ->
      let g = Instance.graph inst in
      let label = Array.make (Graph.n g) 0 in
      Array.iteri
        (fun i members -> List.iter (fun v -> label.(v) <- i) members)
        (Graph.connected_components g);
      label
  | Modularity -> Community.greedy_modularity (Instance.graph inst)
  | Balanced parts ->
      if parts < 1 || parts > Instance.n inst then
        invalid_arg "Shard.partition: parts must be between 1 and the user count";
      Community.balanced_partition rng (Instance.graph inst) ~parts
  | Labels l ->
      if Array.length l <> Instance.n inst then
        invalid_arg "Shard.partition: labels length <> n";
      l

let partition ?rng ?(labelling = Components) inst =
  let rng = match rng with Some r -> r | None -> Rng.create 0 in
  (* Views can only window a root's arenas; partitioning a view (rare —
     e.g. re-sharding a restricted instance) copies it out first. *)
  let inst = Instance.materialize inst in
  let n = Instance.n inst and m = Instance.m inst in
  let label = Community.compact_labels (labels_of inst rng labelling) in
  let groups = Community.groups_of_labels label in
  let nshards = Array.length groups in
  (* Global -> shard-local id. [groups_of_labels] lists members in
     increasing global id, which becomes the local numbering. This one
     table is shared by every shard view (each only dereferences it at
     its own members), so the whole partition costs O(n + edges) extra
     memory — no per-shard pref rows, τ rows or adjacency copies. *)
  let local = Array.make n (-1) in
  Array.iter (Array.iteri (fun i v -> local.(v) <- i)) groups;
  (* Count-then-fill passes over the dense edge/pair indices build each
     shard's local->parent remap tables. Parent enumeration order is
     lexicographic in global ids and local relabelling is monotone, so
     each table comes out sorted and local index order matches the
     lexicographic order of the (never materialized) local graph. *)
  let edge_counts = Array.make (max 1 nshards) 0 in
  Instance.iter_edges inst (fun _ u v ->
      if label.(u) = label.(v) then
        edge_counts.(label.(u)) <- edge_counts.(label.(u)) + 1);
  let edge_maps = Array.init nshards (fun s -> Array.make edge_counts.(s) 0) in
  let edge_fill = Array.make (max 1 nshards) 0 in
  Instance.iter_edges inst (fun e u v ->
      if label.(u) = label.(v) then begin
        let s = label.(u) in
        edge_maps.(s).(edge_fill.(s)) <- e;
        edge_fill.(s) <- edge_fill.(s) + 1
      end);
  let pair_counts = Array.make (max 1 nshards) 0 in
  let ncut = ref 0 in
  Instance.iter_pairs inst (fun _ u v ->
      if label.(u) = label.(v) then
        pair_counts.(label.(u)) <- pair_counts.(label.(u)) + 1
      else incr ncut);
  let pair_maps = Array.init nshards (fun s -> Array.make pair_counts.(s) 0) in
  let pair_fill = Array.make (max 1 nshards) 0 in
  let cut = Array.make !ncut (0, 0) in
  let cut_fill = ref 0 and cut_mass = ref 0.0 in
  let lambda = Instance.lambda inst in
  Instance.iter_pairs inst (fun i u v ->
      if label.(u) = label.(v) then begin
        let s = label.(u) in
        pair_maps.(s).(pair_fill.(s)) <- i;
        pair_fill.(s) <- pair_fill.(s) + 1
      end
      else begin
        cut.(!cut_fill) <- (u, v);
        incr cut_fill;
        for c = 0 to m - 1 do
          cut_mass :=
            !cut_mass +. Instance.tau inst u v c +. Instance.tau inst v u c
        done
      end);
  let shards =
    Array.mapi
      (fun s users ->
        {
          inst =
            Instance.sub_view inst ~users ~local_of:local
              ~edge_map:edge_maps.(s) ~pair_map:pair_maps.(s);
          users;
        })
      groups
  in
  { source = inst; shards; cut_pairs = cut; cut_mass = lambda *. !cut_mass }

let materialize_shards part =
  {
    part with
    shards =
      Array.map
        (fun s -> { s with inst = Instance.materialize s.inst })
        part.shards;
  }

type rounding =
  | Avg of { repeats : int; advanced_sampling : bool }
  | Avg_d of { r : float option }

type on_fault = Isolate | Raise

type result = {
  config : Config.t;
  objective : float;
  bound : float;
  upper_bound : float;
  shard_objectives : float array;
  cut_mass : float;
  repair_gain : float;
  degraded : bool array;
}

(* Inner parallelism must not nest inside a shard fan-out: force the
   rounding serial and pin an unresolved FW backend to one domain. *)
let serial_backend inst backend =
  let backend =
    match backend with Relaxation.Auto -> Relaxation.choose_backend inst | b -> b
  in
  match backend with
  | Relaxation.Frank_wolfe ({ domains = None; _ } as fw) ->
      Relaxation.Frank_wolfe { fw with domains = Some 1 }
  | b -> b

type solved = {
  s_config : Config.t;
  s_utility : float;
  s_degraded : bool;
  s_basis : Svgic_lp.Revised_simplex.vbasis option;
  s_fell_back : bool;
  s_upper : float;
}

let solve_one ?(backend = Relaxation.Auto) ?size_cap ?warm ?incumbent ?token
    ?(on_fault = Isolate) ~site ~index ~rounding rng inst =
  (* Exact optimum of an edge-free shard, and the bottom rung of the
     ladder: with no social coupling each user independently takes their
     k preferred items (the λ = 0 argument of Section 4.4 applies per
     shard regardless of λ). *)
  let greedy =
    lazy
      (let cfg = Algorithms.top_k_greedy inst in
       (cfg, Config.total_utility inst cfg))
  in
  let valued cfg = (cfg, Config.total_utility inst cfg) in
  let better (cfg, util) (c, u) = if u > util then (c, u) else (cfg, util) in
  let settle ~degraded ~basis ~fell_back ~upper (s_config, s_utility) =
    {
      s_config;
      s_utility;
      s_degraded = degraded;
      s_basis = basis;
      s_fell_back = fell_back;
      s_upper = upper;
    }
  in
  let injected = Fault.at ~site ~index in
  (* [None] when the deadline left no clock for rounding. *)
  let body () =
    (match injected with
    | Some Fault.Crash ->
        raise (Fault.Injected (Printf.sprintf "%s[%d]" site index))
    | Some _ | None -> ());
    let token =
      match injected with
      | Some Fault.Timeout -> Some (Supervise.expired_token ())
      | Some _ | None -> token
    in
    if Instance.num_pairs inst = 0 && size_cap = None && injected = None then
      (* The greedy optimum certifies itself. *)
      let g = Lazy.force greedy in
      Some
        (settle ~degraded:false ~basis:None ~fell_back:false ~upper:(snd g) g)
    else begin
      let relax =
        Relaxation.solve ?warm ?token ~backend:(serial_backend inst backend)
          inst
      in
      let relax =
        match injected with
        | Some Fault.Nan ->
            (* Poison a *copy* of the iterate: the health screen below
               has to catch it the same way it would catch a genuinely
               corrupted solve. *)
            let xbar = Array.map Array.copy relax.Relaxation.xbar in
            if Array.length xbar > 0 && Array.length xbar.(0) > 0 then
              xbar.(0).(0) <- Float.nan;
            { relax with Relaxation.xbar }
        | Some _ | None -> relax
      in
      (* Iterate health screen: rounding consumes every xbar cell as a
         utility factor, and a NaN there silently zeroes samples rather
         than crashing. *)
      if not (Supervise.finite_mat relax.Relaxation.xbar) then
        failwith
          (Printf.sprintf "%s[%d]: non-finite relaxation iterate" site index);
      if match token with Some t -> Supervise.expired t | None -> false then
        None
      else begin
        let cfg =
          match rounding with
          | Avg { repeats; advanced_sampling } ->
              Algorithms.avg_best_of ~advanced_sampling ?size_cap ~domains:1
                ~repeats rng inst relax
          | Avg_d { r } -> Algorithms.avg_d ?r ?size_cap ~domains:1 inst relax
        in
        (* Floors: a degraded relaxation voids the rounding guarantee
           (greedy floor), and an incumbent is a free candidate. *)
        let best = valued cfg in
        let best =
          if relax.Relaxation.degraded then better best (Lazy.force greedy)
          else best
        in
        let best =
          match incumbent with Some ic -> better best (valued ic) | None -> best
        in
        (* The relaxation just solved is the certificate: its LP value
           or Frank-Wolfe bound, [infinity] when it degraded. *)
        Some
          (settle ~degraded:relax.Relaxation.degraded
             ~basis:relax.Relaxation.basis ~fell_back:false
             ~upper:(Relaxation.upper_bound inst relax)
             best)
      end
    end
  in
  let outcome =
    match on_fault with
    | Raise -> body ()
    | Isolate -> ( try body () with Fault.Injected _ | Failure _ -> None)
  in
  match outcome with
  | Some r -> r
  | None ->
      (* No clock left for rounding, or the solve failed: the incumbent
         when there is one, else the O(n·m) greedy floor, with no
         certificate. *)
      settle ~degraded:true ~basis:None ~fell_back:true ~upper:infinity
        (match incumbent with
        | Some ic -> valued ic
        | None -> Lazy.force greedy)

let solve_round ?backend ?size_cap ?domains ?(repair_passes = 2) ?token
    ?on_fault ~rounding rng part =
  let src = part.source in
  let nshards = Array.length part.shards in
  let n = Instance.n src and k = Instance.k src in
  (* Per-shard streams derived serially before the fan-out, results
     reduced by index: bit-identical for every [domains] value. *)
  let streams = Rng.split_n rng nshards in
  let assign = Array.make_matrix n k (-1) in
  (* The returned utility is always the utility of the configuration
     actually stitched — that (and τ non-negativity) is what keeps the
     certificate [Σ shard_obj − cut_mass <= objective] true for
     degraded shards with no correction term. *)
  let solve_shard i =
    let inst = part.shards.(i).inst in
    let r =
      solve_one ?backend ?size_cap ?token ?on_fault ~site:"shard.solve"
        ~index:i ~rounding streams.(i) inst
    in
    (* Spill policy: write this shard's rows straight into the shared
       assignment (user rows are disjoint across shards, and the pool
       join publishes them) and drop the view's boxed caches, so the
       per-shard footprint is reclaimed as soon as it is solved — peak
       memory stays O(largest shard + arena) instead of O(n·m). *)
    let users = part.shards.(i).users in
    Array.iteri
      (fun lu g ->
        for s = 0 to k - 1 do
          assign.(g).(s) <- Config.item r.s_config ~user:lu ~slot:s
        done)
      users;
    Instance.drop_view_caches inst;
    (r.s_utility, r.s_degraded, r.s_upper)
  in
  let solved = Pool.parallel_map ?domains nshards solve_shard in
  (* Unchecked wrap: every row was written from a shard config that
     already holds the no-duplication invariant (users partition across
     shards, so each row is written exactly once), and [assign] is not
     mutated after this point. Config.make would copy the n x k matrix
     and hash-validate each row — at XL scale that is another ~n·k
     words of peak footprint for nothing. *)
  let stitched = Config.make_unchecked assign in
  let before = Config.total_utility src stitched in
  let config =
    if repair_passes <= 0 || Array.length part.cut_pairs = 0 then stitched
    else begin
      (* Only cut-edge endpoints were priced without their cross-shard
         friends; best-response sweeps over them never decrease the
         objective (each move is a strict marginal improvement against
         the frozen rest). *)
      let seen = Array.make n false in
      Array.iter
        (fun (u, v) ->
          seen.(u) <- true;
          seen.(v) <- true)
        part.cut_pairs;
      let endpoints = ref [] in
      for u = n - 1 downto 0 do
        if seen.(u) then endpoints := u :: !endpoints
      done;
      Polish.improve_users ~max_passes:repair_passes src stitched
        (Array.of_list !endpoints)
    end
  in
  let objective = Config.total_utility src config in
  let shard_objectives = Array.map (fun (u, _, _) -> u) solved in
  let degraded = Array.map (fun (_, d, _) -> d) solved in
  let bound = Array.fold_left ( +. ) 0.0 shard_objectives -. part.cut_mass in
  let upper_bound =
    Array.fold_left (fun acc (_, _, up) -> acc +. up) part.cut_mass solved
  in
  {
    config;
    objective;
    bound;
    upper_bound;
    shard_objectives;
    cut_mass = part.cut_mass;
    repair_gain = objective -. before;
    degraded;
  }
