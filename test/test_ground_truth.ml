(* Ground-truth brackets: on instances small enough for an exact
   optimum, every path that reports a bracket must hold
   [bound <= objective <= OPT <= upper], where OPT comes from the
   slot-indexed IP ([Baselines.exact_ip], proved optimal), itself
   cross-checked against brute force where the search space fits.

   Paths: the monolith (its relaxation and AVG-D, which must also keep
   a quarter of the relaxation value, Theorem 5), [Shard.solve_round]
   under every labelling, [Serve] after every tick of a trace with a
   join and a leave (against the OPT of [Serve.instance] at that tick),
   and a [Serve] recovered from a checkpoint taken mid-trace. Each
   path runs three ways: as is, with the exact-LP budget at zero so
   every relaxation is a Frank–Wolfe solve and every upper its
   certificate, and with faults armed at the shard sites, where an
   upper may be [infinity] but never below the objective. *)

module Rng = Svgic_util.Rng
module Fault = Svgic_util.Fault
module Graph = Svgic_graph.Graph
module Instance = Svgic.Instance
module Config = Svgic.Config
module Relaxation = Svgic.Relaxation
module Algorithms = Svgic.Algorithms
module Baselines = Svgic.Baselines
module Shard = Svgic.Shard
module Serve = Svgic.Serve
module Wal = Svgic.Wal
module Datasets = Svgic_data.Datasets

(* ---- ground truth --------------------------------------------------- *)

let tol v = 1e-6 *. Float.max 1.0 (Float.abs v)

let perm_count m k =
  let c = ref 1 in
  for i = 0 to k - 1 do
    c := !c * (m - i)
  done;
  !c

(* OPT by the IP; where brute force fits, the two must agree. *)
let opt inst =
  let cfg, r = Baselines.exact_ip inst in
  if not r.Svgic_lp.Branch_bound.proved_optimal then
    Alcotest.fail "exact IP did not prove optimality";
  let v = Config.total_utility inst (Option.get cfg) in
  let n = Instance.n inst and m = Instance.m inst and k = Instance.k inst in
  let states = Float.pow (float_of_int (perm_count m k)) (float_of_int n) in
  if states <= 2e6 then begin
    let brute = Config.total_utility inst (Baselines.exhaustive inst) in
    if Float.abs (brute -. v) > tol v then
      Alcotest.failf "IP optimum %.9f <> brute force %.9f" v brute
  end;
  v

(* [bound <= objective <= OPT <= upper], each up to a relative 1e-6. *)
let check_bracket what ~bound ~objective ~opt ~upper =
  let fail rel a b = Alcotest.failf "%s: %s (%.9f vs %.9f)" what rel a b in
  if bound > objective +. tol objective then
    fail "bound above objective" bound objective;
  if objective > opt +. tol opt then fail "objective above OPT" objective opt;
  if Float.is_nan upper then Alcotest.failf "%s: NaN upper" what;
  if upper < opt -. tol opt then fail "upper below OPT" upper opt

(* ---- instances ------------------------------------------------------ *)

(* A clique: every pair coupled on every item. *)
let dense_instance rng ~n ~m ~k =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then edges := (u, v) :: !edges
    done
  done;
  Helpers.arenas_instance rng (Graph.of_edges ~n !edges) ~m ~k

let instances () =
  let timik seed ~n ~m ~k ~lambda =
    Datasets.make Datasets.Timik (Rng.create seed) ~n ~m ~k ~lambda
  in
  [
    ("timik n18 m6", timik 1 ~n:18 ~m:6 ~k:2 ~lambda:0.5);
    ("timik n16 m5", timik 2 ~n:16 ~m:5 ~k:2 ~lambda:0.7);
    ("timik n8 m4 k1", timik 3 ~n:8 ~m:4 ~k:1 ~lambda:0.5);
    ( "planted n17",
      Test_shard.community_instance ~p_cross:0.1 ~isolated:2 (Rng.create 41)
        ~blobs:3 ~blob_size:5 ~m:5 ~k:2 );
    ("dense n5 m4", dense_instance (Rng.create 30) ~n:5 ~m:4 ~k:2);
  ]

(* ---- the three ways every path runs -------------------------------- *)

type mode = Clean | Fw_only | Faulted

let mode_name = function
  | Clean -> "clean"
  | Fw_only -> "fw"
  | Faulted -> "faulted"

(* Each CI chaos leg sets SVGIC_FAULT_SEED and sees its own pattern. *)
let fault_seed =
  5 + match Fault.env_seed () with Some s -> 100 * s | None -> 0

let with_mode mode f =
  match mode with
  | Clean ->
      Fault.clear ();
      f ()
  | Fw_only ->
      let saved = Relaxation.backend_budget () in
      Relaxation.set_backend_budget
        { Relaxation.exact_vars = 0; exact_nnz = 0 };
      Fun.protect ~finally:(fun () -> Relaxation.set_backend_budget saved) f
  | Faulted ->
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.configure ~seed:fault_seed ~rate:0.5
            ~kinds:[ Fault.Timeout; Fault.Nan; Fault.Crash ];
          Fault.restrict_sites [ "shard.solve"; "serve.shard" ];
          f ())

let modes = [ Clean; Fw_only; Faulted ]

(* ---- the monolith --------------------------------------------------- *)

let test_monolith () =
  List.iter
    (fun (name, inst) ->
      let opt = opt inst in
      List.iter
        (fun mode ->
          with_mode mode (fun () ->
              let what = Printf.sprintf "%s, %s" name (mode_name mode) in
              let relax = Relaxation.solve inst in
              let cfg = Algorithms.avg_d inst relax in
              let objective = Config.total_utility inst cfg in
              check_bracket what ~bound:objective ~objective ~opt
                ~upper:(Relaxation.upper_bound inst relax);
              (* Theorem 5 (Corollary 4.2 for a Frank–Wolfe point): AVG-D
                 keeps a quarter of the value of the point it rounds. *)
              let lp =
                Instance.objective_scale inst
                *. relax.Relaxation.scaled_objective
              in
              if objective < (lp /. 4.0) -. tol lp then
                Alcotest.failf "%s: AVG-D %.6f below LP/4 = %.6f" what objective
                  (lp /. 4.0)))
        modes)
    (instances ())

(* ---- the sharded plan ----------------------------------------------- *)

let labellings inst =
  let n = Instance.n inst in
  [
    ("components", Shard.Components);
    ("modularity", Shard.Modularity);
    ("balanced", Shard.Balanced (min 3 n));
    ("labels", Shard.Labels (Array.init n (fun u -> u mod 3)));
  ]

let roundings =
  [
    ("avg-d", Shard.Avg_d { r = None });
    ("avg", Shard.Avg { repeats = 2; advanced_sampling = true });
  ]

let test_solve_round domains () =
  List.iter
    (fun (name, inst) ->
      let opt = opt inst in
      List.iter
        (fun (lname, labelling) ->
          let part = Shard.partition ~rng:(Rng.create 0) ~labelling inst in
          List.iter
            (fun (rname, rounding) ->
              List.iter
                (fun mode ->
                  with_mode mode (fun () ->
                      let r =
                        Shard.solve_round ~domains ~rounding (Rng.create 7) part
                      in
                      check_bracket
                        (Printf.sprintf "%s, %s, %s, %s" name lname rname
                           (mode_name mode))
                        ~bound:r.Shard.bound ~objective:r.Shard.objective ~opt
                        ~upper:r.Shard.upper_bound))
                modes)
            roundings)
        (labellings inst))
    (instances ())

(* ---- serving -------------------------------------------------------- *)

let profile ~m ~seed ~friends =
  let r = Rng.create (31 * seed) in
  let pref = Array.init m (fun _ -> Rng.float r 1.0) in
  let tout = Rng.float r 0.5 and tin = Rng.float r 0.5 in
  {
    Svgic.Dynamic.pref;
    friends = Array.of_list friends;
    tau_out = (fun _ _ -> tout);
    tau_in = (fun _ _ -> tin);
  }

(* Tick [i] of a five-tick trace over external ids: preference and τ
   drift every tick, a join at tick 2 and a leave at tick 3. τ deltas
   address the initial graph's edges; one whose endpoint has left is
   dropped by the engine. *)
let submit_tick t ~edges ~m i =
  let r = Rng.create (1000 + i) in
  let ids = Serve.user_ids t in
  for _ = 1 to 3 do
    ignore
      (Serve.submit t
         (Serve.Pref_delta
            {
              user = ids.(Rng.int r (Array.length ids));
              item = Rng.int r m;
              value = Rng.float r 1.0;
            }))
  done;
  if Array.length edges > 0 then begin
    let u, v = edges.(Rng.int r (Array.length edges)) in
    ignore
      (Serve.submit t
         (Serve.Tau_delta
            { u; v; item = Rng.int r m; value = Rng.float r 0.5 }))
  end;
  if i = 2 then
    ignore (Serve.submit t (Serve.Join (profile ~m ~seed:i ~friends:[ 0; 3 ])));
  if i = 3 then ignore (Serve.submit t (Serve.Leave 5))

let check_serve what t =
  let inst = Serve.instance t in
  check_bracket
    (Printf.sprintf "%s, tick %d" what (Serve.tick_count t))
    ~bound:(Serve.bound t) ~objective:(Serve.objective t) ~opt:(opt inst)
    ~upper:(Serve.upper t)

let serve_instances () =
  List.filter
    (fun (name, _) -> name = "timik n18 m6" || name = "planted n17")
    (instances ())

(* [f] on a fresh durability directory, removed afterwards. *)
let with_dir =
  let c = ref 0 in
  fun f ->
    incr c;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "svgic-gt-%d-%d" (Unix.getpid ()) !c)
    in
    Svgic.Checkpoint.ensure_dir dir;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () -> f dir)

(* The full trace on one engine, checked after every tick; a durable
   copy of the same trace checkpoints after tick 2, runs tick 3, and
   is recovered from its directory, which must reproduce the live
   engine bit for bit and keep the bracket through tick 5. *)
let test_serve domains () =
  List.iter
    (fun (name, inst) ->
      let m = Instance.m inst in
      let edges = Graph.edges (Instance.graph inst) in
      List.iter
        (fun mode ->
          with_mode mode (fun () ->
              let what = Printf.sprintf "%s, %s" name (mode_name mode) in
              let t =
                Serve.create ~domains (Rng.create 5) (Instance.materialize inst)
              in
              check_serve what t;
              for i = 1 to 5 do
                submit_tick t ~edges ~m i;
                ignore (Serve.tick t : Serve.tick_stats);
                check_serve what t
              done;
              let what = what ^ ", recovered" in
              with_dir @@ fun dir ->
              let d =
                Serve.create ~domains (Rng.create 5) (Instance.materialize inst)
              in
              Serve.enable_durability d
                {
                  Serve.dir;
                  fsync = Wal.Off;
                  checkpoint_every = 1_000;
                  retain = 2;
                };
              for i = 1 to 3 do
                submit_tick d ~edges ~m i;
                ignore (Serve.tick d : Serve.tick_stats);
                if i = 2 then ignore (Serve.checkpoint d : string)
              done;
              Serve.disable_durability d;
              match Serve.recover ~domains ~fsync:Wal.Off ~dir () with
              | Error e -> Alcotest.failf "%s: recover: %s" what e
              | Ok (r, _) ->
                  Alcotest.(check int)
                    (what ^ ": fingerprint") (Serve.fingerprint d)
                    (Serve.fingerprint r);
                  check_serve what r;
                  for i = 4 to 5 do
                    submit_tick r ~edges ~m i;
                    ignore (Serve.tick r : Serve.tick_stats);
                    check_serve what r
                  done;
                  Serve.disable_durability r))
        modes)
    (serve_instances ())

let suite =
  [
    Alcotest.test_case "monolith: LP and AVG-D bracket OPT" `Quick
      test_monolith;
    Alcotest.test_case "solve_round brackets OPT (1 domain)" `Quick
      (test_solve_round 1);
    Alcotest.test_case "solve_round brackets OPT (2 domains)" `Quick
      (test_solve_round 2);
    Alcotest.test_case "serve and recover bracket OPT (1 domain)" `Quick
      (test_serve 1);
    Alcotest.test_case "serve and recover bracket OPT (2 domains)" `Quick
      (test_serve 2);
  ]
