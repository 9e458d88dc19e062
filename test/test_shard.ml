(* Tests for the community-sharded pipeline: partition structure,
   component-sharded exactness against the monolith, bit-identity
   across domain counts, cut-repair monotonicity, certificate
   soundness, and golden digests of the per-shard solve ladder. *)

module Rng = Svgic_util.Rng
module Crc32 = Svgic_util.Crc32
module Fault = Svgic_util.Fault
module Supervise = Svgic_util.Supervise
module Graph = Svgic_graph.Graph
module Instance = Svgic.Instance
module Config = Svgic.Config
module Relaxation = Svgic.Relaxation
module Algorithms = Svgic.Algorithms
module Shard = Svgic.Shard

(* Planted-community instance: [blobs] dense blobs of [blob_size]
   users; [p_cross] wires consecutive blobs together (0 leaves the
   blobs disconnected); [isolated] friendless users follow the blobs. *)
let community_instance ?(p_cross = 0.0) ?(lambda = 0.5) ?(isolated = 0) rng
    ~blobs ~blob_size ~m ~k =
  let n = (blobs * blob_size) + isolated in
  let edges = ref [] in
  for b = 0 to blobs - 1 do
    let base = b * blob_size in
    for i = 0 to blob_size - 1 do
      for j = 0 to blob_size - 1 do
        if i <> j && Rng.bernoulli rng 0.5 then
          edges := (base + i, base + j) :: !edges
      done
    done
  done;
  if p_cross > 0.0 then
    for b = 0 to blobs - 2 do
      for i = 0 to blob_size - 1 do
        for j = 0 to blob_size - 1 do
          if Rng.bernoulli rng p_cross then
            edges := ((b * blob_size) + i, ((b + 1) * blob_size) + j) :: !edges
        done
      done
    done;
  let g = Graph.of_edges ~n !edges in
  let pref =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let tau_table = Hashtbl.create 64 in
  Array.iter
    (fun (u, v) ->
      Hashtbl.replace tau_table (u, v)
        (Array.init m (fun _ -> Rng.float rng 0.5)))
    (Graph.edges g);
  let tau u v c =
    match Hashtbl.find_opt tau_table (u, v) with
    | Some row -> row.(c)
    | None -> 0.0
  in
  Instance.create ~graph:g ~m ~k ~lambda ~pref ~tau

let test_partition_structure () =
  let rng = Rng.create 11 in
  let inst = community_instance ~p_cross:0.1 rng ~blobs:3 ~blob_size:4 ~m:5 ~k:2 in
  let n = Instance.n inst in
  let part = Shard.partition ~labelling:Shard.Modularity inst in
  (* Shards partition the users. *)
  let seen = Array.make n 0 in
  Array.iter
    (fun Shard.{ inst = sub; users } ->
      Alcotest.(check int) "sub size" (Array.length users) (Instance.n sub);
      Alcotest.(check int) "m preserved" (Instance.m inst) (Instance.m sub);
      Alcotest.(check int) "k preserved" (Instance.k inst) (Instance.k sub);
      Array.iter (fun g -> seen.(g) <- seen.(g) + 1) users)
    part.Shard.shards;
  Array.iter (fun c -> Alcotest.(check int) "user in one shard" 1 c) seen;
  (* Every source pair is either inside some shard or on the cut, and
     the shard graphs carry exactly the intra pairs. *)
  let intra =
    Array.fold_left
      (fun acc Shard.{ inst = sub; _ } ->
        acc + Array.length (Instance.pairs sub))
      0 part.Shard.shards
  in
  Alcotest.(check int) "pairs conserved"
    (Array.length (Instance.pairs inst))
    (intra + Array.length part.Shard.cut_pairs);
  (* Sliced tables agree with the source through the id mapping. *)
  Array.iter
    (fun Shard.{ inst = sub; users } ->
      Array.iteri
        (fun lu g ->
          for c = 0 to Instance.m inst - 1 do
            Alcotest.(check (float 0.0)) "pref sliced"
              (Instance.pref inst g c) (Instance.pref sub lu c)
          done)
        users;
      Array.iter
        (fun (lu, lv) ->
          for c = 0 to Instance.m inst - 1 do
            Alcotest.(check (float 0.0)) "tau sliced"
              (Instance.tau inst users.(lu) users.(lv) c)
              (Instance.tau sub lu lv c)
          done)
        (Graph.edges (Instance.graph sub)))
    part.Shard.shards

let test_partition_components_disconnected () =
  let rng = Rng.create 3 in
  let inst = community_instance rng ~blobs:3 ~blob_size:4 ~m:4 ~k:2 in
  let part = Shard.partition inst in
  Alcotest.(check int) "empty cut" 0 (Array.length part.Shard.cut_pairs);
  Alcotest.(check (float 0.0)) "zero cut mass" 0.0 part.Shard.cut_mass;
  Alcotest.(check bool) "several shards" true
    (Array.length part.Shard.shards >= 3)

let test_partition_balanced () =
  let rng = Rng.create 5 in
  let inst = community_instance ~p_cross:0.2 rng ~blobs:2 ~blob_size:5 ~m:4 ~k:2 in
  let part =
    Shard.partition ~rng:(Rng.create 0) ~labelling:(Shard.Balanced 3) inst
  in
  Alcotest.(check int) "three shards" 3 (Array.length part.Shard.shards);
  Array.iter
    (fun Shard.{ users; _ } ->
      let sz = Array.length users in
      (* balanced_partition caps each part at ceil(n / parts). *)
      Alcotest.(check bool) "capped sizes" true (sz >= 1 && sz <= 4))
    part.Shard.shards

let test_balanced_part_count () =
  let inst = community_instance (Rng.create 6) ~blobs:2 ~blob_size:5 ~m:4 ~k:2 in
  let part = Shard.partition ~labelling:(Shard.Balanced 10) inst in
  Alcotest.(check int) "one user per part" 10 (Array.length part.Shard.shards);
  List.iter
    (fun parts ->
      match Shard.partition ~labelling:(Shard.Balanced parts) inst with
      | _ -> Alcotest.failf "Balanced %d accepted for 10 users" parts
      | exception Invalid_argument _ -> ())
    [ 0; 11; 50 ]

(* Exit code and stderr of one CLI run; stdout is discarded. *)
let run_cli args =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/svgic_cli.exe" in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) null null err_w in
  Unix.close err_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED code -> (code, err)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, err)

let test_cli_rejects_part_count () =
  List.iter
    (fun cmd ->
      let code, err = run_cli [ cmd; "-n"; "12"; "--shards"; "50" ] in
      Alcotest.(check int) (cmd ^ ": exit code") 1 code;
      Alcotest.(check string) (cmd ^ ": one-line error")
        "bad --shards value \"50\": more parts than the 12 users\n" err)
    [ "solve"; "serve" ]

let test_cli_rejects_cap () =
  List.iter
    (fun (args, cap) ->
      let code, err = run_cli args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": exit code") 1 code;
      Alcotest.(check string) (what ^ ": one-line error")
        (Printf.sprintf "bad --cap value %d: the size cap must be at least 1\n" cap)
        err)
    [
      ([ "solve"; "--method"; "avg"; "-n"; "8"; "-m"; "6"; "-k"; "2"; "--cap"; "0" ], 0);
      ([ "solve"; "--method"; "avg-d"; "-n"; "8"; "-m"; "6"; "-k"; "2"; "--cap"; "0" ], 0);
      ([ "compare"; "-n"; "8"; "-m"; "6"; "-k"; "2"; "--cap"; "0" ], 0);
      ([ "solve"; "-n"; "8"; "-m"; "6"; "-k"; "2"; "--cap=-3" ], -3);
    ]

(* On a disconnected graph the objective factors exactly, so
   component-sharding is pinned to the monolith at every layer where
   equality genuinely holds: the relaxation value decomposes to the
   monolith's exactly, and the achieved objective equals Σ shard
   objectives = the reported bound (tight certificate, no repair).
   Rounding-level equality is *not* a theorem — a monolith AVG-D
   threshold step co-displays eligible users across component
   boundaries, which per-component runs never do — and empirically the
   decomposed greedy dominates, so that is asserted (deterministic:
   AVG-D plus fixed seeds). *)
let test_component_exactness () =
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let inst = community_instance rng ~blobs:3 ~blob_size:4 ~m:5 ~k:2 in
    let relax = Relaxation.solve inst in
    let mono = Algorithms.avg_d inst relax in
    let mono_obj = Config.total_utility inst mono in
    let part = Shard.partition inst in
    let shard_ub =
      Array.fold_left
        (fun acc Shard.{ inst = sub; _ } ->
          acc +. Relaxation.upper_bound sub (Relaxation.solve sub))
        0.0 part.Shard.shards
    in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "seed %d: relaxation decomposes to monolith" seed)
      (Relaxation.upper_bound inst relax)
      shard_ub;
    let res =
      Shard.solve_round
        ~rounding:(Shard.Avg_d { r = None })
        (Rng.create seed) part
    in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "seed %d: objective = sum of shard objectives" seed)
      (Array.fold_left ( +. ) 0.0 res.Shard.shard_objectives)
      res.Shard.objective;
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "seed %d: certificate tight" seed)
      res.Shard.objective res.Shard.bound;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "seed %d: no repair on empty cut" seed)
      0.0 res.Shard.repair_gain;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: sharded >= monolith AVG-D" seed)
      true
      (res.Shard.objective >= mono_obj -. 1e-9)
  done

let test_bit_identity_across_domains () =
  let rng = Rng.create 21 in
  let inst =
    community_instance ~p_cross:0.08 rng ~blobs:4 ~blob_size:4 ~m:5 ~k:2
  in
  let part = Shard.partition ~labelling:Shard.Modularity inst in
  let run domains =
    Shard.solve_round ~domains
      ~rounding:(Shard.Avg { repeats = 3; advanced_sampling = true })
      (Rng.create 77) part
  in
  let reference = run 1 in
  List.iter
    (fun domains ->
      let res = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "domains %d: identical config" domains)
        true
        (Config.assignment res.Shard.config
        = Config.assignment reference.Shard.config);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "domains %d: identical objective" domains)
        reference.Shard.objective res.Shard.objective)
    [ 2; 4 ]

let test_cut_repair_monotone () =
  for seed = 1 to 5 do
    let rng = Rng.create (100 + seed) in
    let inst =
      community_instance ~p_cross:0.15 rng ~blobs:3 ~blob_size:4 ~m:5 ~k:2
    in
    let part = Shard.partition ~labelling:Shard.Modularity inst in
    let rounding = Shard.Avg_d { r = None } in
    let raw =
      Shard.solve_round ~repair_passes:0 ~rounding (Rng.create seed) part
    in
    let repaired = Shard.solve_round ~rounding (Rng.create seed) part in
    Alcotest.(check (float 0.0)) "no gain without repair" 0.0
      raw.Shard.repair_gain;
    Alcotest.(check bool) "repair never decreases" true
      (repaired.Shard.objective >= raw.Shard.objective -. 1e-12);
    Alcotest.(check (float 1e-9)) "gain accounted"
      (repaired.Shard.objective -. raw.Shard.objective)
      repaired.Shard.repair_gain
  done

(* On connected, modularity-sharded instances the certificate must
   stay below the achieved objective (τ >= 0: the stitched config can
   only gain the cross-shard mass the bound writes off). *)
let test_certificate_sound () =
  for seed = 1 to 8 do
    let rng = Rng.create (200 + seed) in
    let inst =
      community_instance ~p_cross:0.12 rng ~blobs:4 ~blob_size:4 ~m:5 ~k:2
    in
    let part = Shard.partition ~labelling:Shard.Modularity inst in
    let res =
      Shard.solve_round
        ~rounding:(Shard.Avg { repeats = 2; advanced_sampling = true })
        (Rng.create seed) part
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: bound <= objective" seed)
      true
      (res.Shard.bound <= res.Shard.objective +. 1e-9)
  done

(* Shard upper bounds: every round brackets OPT — objective <=
   upper_bound — with a finite certificate from the relaxations its
   shards solved. *)
let test_certified_integer_bracket () =
  for seed = 1 to 6 do
    let rng = Rng.create (300 + seed) in
    let inst =
      community_instance ~p_cross:0.1 rng ~blobs:3 ~blob_size:4 ~m:5 ~k:2
    in
    let part = Shard.partition ~labelling:Shard.Modularity inst in
    let rounding = Shard.Avg { repeats = 2; advanced_sampling = true } in
    let cert = Shard.solve_round ~rounding (Rng.create seed) part in
    let ub = cert.Shard.upper_bound in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: certificate is finite (%.4f)" seed ub)
      true (ub < infinity);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: objective %.4f <= upper bound %.4f" seed
         cert.Shard.objective ub)
      true
      (cert.Shard.objective <= ub +. 1e-9)
  done

(* Edge-free self-certification: with no social edges every component
   shard is a lone user, whose greedy top-k is the exact optimum — the
   certificate must equal the objective bit for bit (empty cut). *)
let test_certified_edge_free_exact () =
  let rng = Rng.create 77 in
  let g = Graph.of_edges ~n:10 [] in
  let pref =
    Array.init 10 (fun _ -> Array.init 6 (fun _ -> Rng.float rng 1.0))
  in
  let inst =
    Instance.create ~graph:g ~m:6 ~k:2 ~lambda:0.0 ~pref ~tau:(fun _ _ _ -> 0.0)
  in
  let part = Shard.partition inst in
  let res =
    Shard.solve_round ~rounding:(Shard.Avg_d { r = None }) (Rng.create 1) part
  in
  (* Edge-free shards: objective = optimum = certificate (empty cut, so
     the sums agree up to float order). *)
  Alcotest.(check (float 1e-9)) "greedy optimum certifies itself"
    res.Shard.objective res.Shard.upper_bound

(* Golden digests of the per-shard solve ladder. One CRC per round
   over every bit [solve_round] reports (objective, bound and upper
   bits, shard objectives, degraded mask, repair gain, the config),
   folded per (labelling, fault setting) across every rounding,
   no/unlimited/expired token and size cap none/3. The fixture's three
   friendless users give edge-free shards under every labelling but
   [Balanced]. The constants were re-captured when every shard began
   reporting its relaxation's upper bound; with the upper term left
   out, every round reproduced its digest from before that change. A
   clean or faulted round must not move by a bit, on one domain or
   two. *)
let crc_add64 crc v =
  let buf = Bytes.create 8 in
  Bytes.set_int64_le buf 0 v;
  Crc32.update_bytes crc buf ~pos:0 ~len:8

let digest_of (r : Shard.result) =
  let crc = ref 0 in
  let add_i v = crc := crc_add64 !crc (Int64.of_int v) in
  let add_f v = crc := crc_add64 !crc (Int64.bits_of_float v) in
  add_f r.Shard.objective;
  add_f r.Shard.bound;
  add_f r.Shard.upper_bound;
  Array.iter add_f r.Shard.shard_objectives;
  Array.iter (fun d -> add_i (Bool.to_int d)) r.Shard.degraded;
  add_f r.Shard.repair_gain;
  Array.iter (Array.iter add_i) (Config.assignment r.Shard.config);
  !crc

let ladder_digests domains =
  let inst =
    community_instance ~p_cross:0.1 ~isolated:3 (Rng.create 41) ~blobs:3
      ~blob_size:4 ~m:5 ~k:2
  in
  let labels =
    Array.init (Instance.n inst) (fun u -> if u >= 12 then 3 else u mod 3)
  in
  let labellings =
    [
      ("components", Shard.Components);
      ("modularity", Shard.Modularity);
      ("balanced", Shard.Balanced 4);
      ("labels", Shard.Labels labels);
    ]
  in
  let roundings =
    [
      Shard.Avg { repeats = 2; advanced_sampling = true };
      Shard.Avg { repeats = 1; advanced_sampling = false };
      Shard.Avg_d { r = None };
    ]
  in
  let tokens =
    [
      (fun () -> None);
      (fun () -> Some (Supervise.unlimited ()));
      (fun () -> Some (Supervise.expired_token ()));
    ]
  in
  let product xs ys =
    List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs
  in
  let runs = product roundings (product tokens [ None; Some 3 ]) in
  let fold part =
    List.fold_left
      (fun acc (rounding, (token, size_cap)) ->
        let r =
          Shard.solve_round ~domains ?size_cap ?token:(token ()) ~rounding
            (Rng.create 7) part
        in
        crc_add64 acc (Int64.of_int (digest_of r)))
      0 runs
  in
  let faults =
    ("clean", None)
    :: List.map (fun s -> (Printf.sprintf "seed %d" s, Some s)) [ 1; 2; 3 ]
  in
  List.map
    (fun ((fname, fseed), (lname, labelling)) ->
      let part = Shard.partition ~rng:(Rng.create 0) ~labelling inst in
      let crc =
        Fun.protect ~finally:Fault.clear (fun () ->
            (match fseed with
            | None -> Fault.clear ()
            | Some seed ->
                Fault.configure ~seed ~rate:0.5
                  ~kinds:[ Fault.Timeout; Fault.Nan; Fault.Crash ]);
            fold part)
      in
      (fname ^ " " ^ lname, crc))
    (product faults labellings)

let golden_ladder =
  [
    ("clean components", 0xf46b790f); ("clean modularity", 0xf1ade173);
    ("clean balanced", 0xacbac6f0); ("clean labels", 0x317e4e48);
    ("seed 1 components", 0xe7a65804); ("seed 1 modularity", 0xcda81c23);
    ("seed 1 balanced", 0x5da481ba); ("seed 1 labels", 0xe026908c);
    ("seed 2 components", 0xc6a123e6); ("seed 2 modularity", 0xa07b503d);
    ("seed 2 balanced", 0x70629c3c); ("seed 2 labels", 0x53a2ae4c);
    ("seed 3 components", 0xc6a123e6); ("seed 3 modularity", 0x89889257);
    ("seed 3 balanced", 0x70629c3c); ("seed 3 labels", 0x53a2ae4c);
  ]

let test_golden_ladder_digests () =
  List.iter
    (fun domains ->
      let got = ladder_digests domains in
      if got <> golden_ladder then
        Alcotest.failf "domains=%d: digests [%s]" domains
          (String.concat "; "
             (List.map2
                (fun (name, crc) (_, want) ->
                  Printf.sprintf "(%S, 0x%08x)%s" name crc
                    (if crc = want then "" else " (* moved *)"))
                got golden_ladder)))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "partition structure" `Quick test_partition_structure;
    Alcotest.test_case "components: empty cut" `Quick
      test_partition_components_disconnected;
    Alcotest.test_case "balanced labelling" `Quick test_partition_balanced;
    Alcotest.test_case "balanced part count checked" `Quick
      test_balanced_part_count;
    Alcotest.test_case "CLI rejects --cap < 1" `Quick test_cli_rejects_cap;
    Alcotest.test_case "CLI rejects --shards > users" `Quick
      test_cli_rejects_part_count;
    Alcotest.test_case "component exactness (20 seeds)" `Quick
      test_component_exactness;
    Alcotest.test_case "bit-identity across domains" `Quick
      test_bit_identity_across_domains;
    Alcotest.test_case "cut repair monotone" `Quick test_cut_repair_monotone;
    Alcotest.test_case "certificate soundness" `Quick test_certificate_sound;
    Alcotest.test_case "certified integer bracket" `Quick
      test_certified_integer_bracket;
    Alcotest.test_case "certified edge-free self-certification" `Quick
      test_certified_edge_free_exact;
    Alcotest.test_case "golden ladder digests (1 and 2 domains)" `Quick
      test_golden_ladder_digests;
  ]
