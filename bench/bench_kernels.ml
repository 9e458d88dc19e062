(* Kernel benchmarks for the hot paths behind Figures 3/8/9.

   Two layers:

   1. Before/after kernel timings for the incremental structures
      introduced by the perf work — weighted focal-pair sampling
      (naive rescan vs Fenwick tree), AVG-D candidate selection
      (full-cache rescan vs per-slot champions, plus end-to-end
      AVG-D), and the
      Pool fan-out of AVG best-of-N. Results are printed and written
      machine-readably to BENCH_kernels.json (schema in DESIGN.md
      §"Performance architecture") so the perf trajectory is tracked
      across PRs.

   2. The original bechamel micro-benchmarks of the algorithmic
      kernels: LP build, simplex solve, one Frank-Wolfe sweep, CSF
      rounding, AVG-D, and objective evaluation.

   Setting SVGIC_BENCH_SMOKE=1 shrinks every size and skips the
   bechamel layer — used by CI to keep the harness from rotting
   without burning minutes. *)

open Bechamel
open Toolkit

module Rng = Svgic_util.Rng
module Fenwick = Svgic_util.Fenwick
module Pool = Svgic_util.Pool
module Select = Svgic_util.Select
module Timer = Svgic_util.Timer
module Datasets = Svgic_data.Datasets

let smoke () =
  match Sys.getenv_opt "SVGIC_BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* ---------------- timing + result records ------------------------- *)

type record = {
  kernel : string;
  variant : string;
  size : int; (* m·k for sampler/AVG-D kernels; repeats for the pool *)
  ns_per_op : float;
  allocated_words_per_op : float;
      (* total GC words (minor + major − promoted) per op: minor_words
         alone would miss large arrays, which are allocated directly in
         the major heap — exactly the arena traffic tracked here *)
  domains : int option;
      (* worker count a parallel variant actually ran with; [Some 1]
         flags a fan-out measured on a single-domain box, which the
         speedup derivation skips (fan-out overhead is not a
         regression) *)
  note : string option; (* free-form context, e.g. objective quality *)
}

let mk ?domains ?note ?(alloc = 0.0) kernel variant size ns_per_op =
  {
    kernel;
    variant;
    size;
    ns_per_op;
    allocated_words_per_op = alloc;
    domains;
    note;
  }

(* The note of a row fanned out over [domains] workers. On a
   single-domain box the row measures fan-out overhead, not scaling.
   On more, its words/op omit what the workers allocated: on OCaml 5.1
   [Gc.minor_words] and [Gc.counters] count the calling domain only. *)
let fanout_note domains =
  if domains <= 1 then
    "single-domain host: row measures fan-out overhead, not scaling"
  else "words/op count the calling domain only"

(* CPU time the hypervisor stole from this VM since boot: (steal,
   total) jiffies from the aggregate line of /proc/stat, [None]
   without procfs. A fan-out row's note states the share stolen while
   it ran: a hand-off to a descheduled vCPU stalls the whole join. *)
let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      match line with
      | None -> None
      | Some l -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' l) with
          | "cpu" :: fields -> (
              let v = List.filter_map int_of_string_opt fields in
              match List.nth_opt v 7 with
              | Some steal -> Some (steal, List.fold_left ( + ) 0 v)
              | None -> None)
          | _ -> None))

let steal_note before after =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      Printf.sprintf "host stole %.1f%% of CPU time"
        (100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | None, _ | _, None -> "host steal not measured (no /proc/stat)"
  | _ -> "host steal not measured (no CPU time elapsed)"

(* The minor term comes from [Gc.minor_words], which counts the
   current minor heap's fill exactly; on OCaml 5.1 the minor term of
   [Gc.counters] adds only an eighth of it, so a window that triggers
   no minor collection would read about 8x low. *)
let words_now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* [words_now] at the start of a measurement window. The minor
   collection empties the minor heap first, so every word promoted
   inside the window was also allocated inside it and the difference
   counts exactly the window's allocation; otherwise survivors of
   earlier allocations are subtracted too, and a row's reading depends
   on what the rows run before it left in the minor heap. *)
let window_start () =
  Gc.minor ();
  words_now ()

(* Best-of-[rounds] wall clock over [ops] iterations of [f]; the
   minimum is the standard noise-robust estimator for single-threaded
   kernels (the pool rows use a single round: they measure wall-clock
   speedup, not a noise floor). Returns (ns/op, words/op); allocation
   is read off the last round — it is deterministic per op once
   one-time costs (the growth of a domain's solver workspace, starting
   the pool's workers) have landed on the first round, so a row reads
   the same whichever rows ran before it. *)
let time_kernel ?(rounds = 3) ~ops f =
  let best = ref infinity and alloc = ref 0.0 in
  for r = 1 to rounds do
    let w0 = window_start () in
    let t = Timer.start () in
    for _ = 1 to ops do
      f ()
    done;
    let dt = Timer.elapsed_s t in
    if r = rounds then alloc := (words_now () -. w0) /. float_of_int ops;
    if dt < !best then best := dt
  done;
  (!best *. 1e9 /. float_of_int ops, !alloc)

(* Times a before/after pair under comparable load: every round
   measures both sides back to back, alternating which goes first, and
   each side keeps its best round. Two sequential best-of blocks are
   vulnerable to background-load shifts between the blocks, which at
   the small AVG-D shapes dwarfs the effect being measured. An untimed
   warm-up round of each side comes first: one-time costs (a fresh
   program's CSC, the growth of a domain's solver workspace, starting
   the pool's workers) would otherwise land on whichever side runs
   first, so identical work would read as different words/op. *)
let time_pair ?(rounds = 5) ~ops f g =
  let measure h =
    let w0 = window_start () in
    let t = Timer.start () in
    for _ = 1 to ops do
      h ()
    done;
    (Timer.elapsed_s t, (words_now () -. w0) /. float_of_int ops)
  in
  ignore (measure f);
  ignore (measure g);
  let best_f = ref infinity and best_g = ref infinity in
  let alloc_f = ref 0.0 and alloc_g = ref 0.0 in
  for r = 1 to rounds do
    let (df, wf), (dg, wg) =
      if r land 1 = 1 then
        let rf = measure f in
        (rf, measure g)
      else
        let rg = measure g in
        (measure f, rg)
    in
    if r = 1 then begin
      alloc_f := wf;
      alloc_g := wg
    end;
    if df < !best_f then best_f := df;
    if dg < !best_g then best_g := dg
  done;
  let scale = 1e9 /. float_of_int ops in
  ((!best_f *. scale, !alloc_f), (!best_g *. scale, !alloc_g))

(* ---------------- weighted-sampling kernel ------------------------ *)

(* Mirrors one avg_advanced iteration's sampling cost. Naive (seed
   code): Select.sum over the full weight array + the O(n) scan of
   Rng.pick_weighted. Fenwick: O(log n) total + draw + one refresh
   [set], matching the refresh-on-draw discipline of the rewritten
   loop. *)
let weighted_draw_records ~sizes =
  List.concat_map
    (fun size ->
      let rng = Rng.create (9000 + size) in
      let w =
        Array.init size (fun _ -> if Rng.bernoulli rng 0.3 then Rng.uniform rng else 0.0)
      in
      if Select.sum w <= 0.0 then w.(0) <- 1.0;
      let draw_rng = Rng.create 42 in
      let naive_ops = max 50 (2_000_000 / size) in
      let naive, naive_w =
        time_kernel ~ops:naive_ops (fun () ->
            let total = Select.sum w in
            ignore total;
            ignore (Rng.pick_weighted draw_rng w))
      in
      let t = Fenwick.of_array w in
      let fen_rng = Rng.create 42 in
      let fenwick, fenwick_w =
        time_kernel ~ops:100_000 (fun () ->
            ignore (Fenwick.total t);
            let idx = Fenwick.sample fen_rng t in
            Fenwick.set t idx (Fenwick.get t idx))
      in
      [
        mk ~alloc:naive_w "weighted_draw" "naive" size naive;
        mk ~alloc:fenwick_w "weighted_draw" "fenwick" size fenwick;
      ])
    sizes

(* ---------------- AVG-D candidate-selection kernel ---------------- *)

(* Isolated selection cost of one AVG-D iteration after an assignment
   at slot [s]. Both variants pay the same m same-slot score refreshes
   (recomputation AVG-D performs either way); the seed discipline then
   rescans the whole m·k cache for the argmax, while the champion
   discipline folds the slot champion during the refresh and finishes
   with a k-way compare of the per-slot champions. Scores are kept in
   a flat float array for both sides (the seed actually scans a
   [candidate option array], so the naive side here is conservative). *)
let avg_d_select_records ~sizes =
  List.concat_map
    (fun requested ->
      let k = 8 in
      let m = max 1 (requested / k) in
      let size = m * k in
      let rng = Rng.create (7000 + size) in
      let fresh_score () =
        if Rng.bernoulli rng 0.9 then Rng.uniform rng else neg_infinity
      in
      let score = Array.init size (fun _ -> fresh_score ()) in
      let rounds = 32 in
      let fresh =
        Array.init rounds (fun _ -> Array.init m (fun _ -> fresh_score ()))
      in
      let round = ref 0 in
      let ops = max 50 (2_000_000 / size) in
      let naive, naive_w =
        time_kernel ~ops (fun () ->
            let r = !round in
            round := (r + 1) mod rounds;
            let s = r mod k in
            let vals = fresh.(r) in
            for c = 0 to m - 1 do
              score.((c * k) + s) <- vals.(c)
            done;
            let best = ref (-1) and best_score = ref neg_infinity in
            for idx = 0 to size - 1 do
              let sc = score.(idx) in
              if sc > !best_score then begin
                best := idx;
                best_score := sc
              end
            done;
            ignore !best)
      in
      let champ = Array.make k (-1) in
      let rescan s =
        let best = ref (-1) in
        for c = 0 to m - 1 do
          let idx = (c * k) + s in
          if
            score.(idx) > neg_infinity
            && (!best < 0 || score.(idx) > score.(!best))
          then best := idx
        done;
        champ.(s) <- !best
      in
      for s = 0 to k - 1 do
        rescan s
      done;
      round := 0;
      let champion, champion_w =
        time_kernel ~ops:100_000 (fun () ->
            let r = !round in
            round := (r + 1) mod rounds;
            let s = r mod k in
            let vals = fresh.(r) in
            let best = ref (-1) in
            for c = 0 to m - 1 do
              let idx = (c * k) + s in
              let v = vals.(c) in
              score.(idx) <- v;
              if v > neg_infinity && (!best < 0 || v > score.(!best)) then
                best := idx
            done;
            champ.(s) <- !best;
            let pick = ref (-1) in
            for s' = 0 to k - 1 do
              let idx = champ.(s') in
              if
                idx >= 0
                && (!pick < 0 || score.(idx) > score.(!pick))
              then pick := idx
            done;
            ignore !pick)
      in
      [
        mk ~alloc:naive_w "avg_d_select" "naive" size naive;
        mk ~alloc:champion_w "avg_d_select" "champion" size champion;
      ])
    sizes

(* ---------------- AVG-D end-to-end -------------------------------- *)

let avg_d_end_to_end_records ~shapes =
  List.concat_map
    (fun (n, m, k) ->
      let rng = Rng.create (1700 + n + m + k) in
      let inst = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5 in
      let relax = Svgic.Relaxation.solve inst in
      (* Aggregate several calls per round: a single rounding run is
         tens of microseconds at the small shapes, far below timer and
         scheduler noise. *)
      let ops = max 2 (2_000_000 / (n * m * k)) in
      let (reference, reference_w), (champion, champion_w) =
        time_pair ~rounds:5 ~ops
          (fun () -> ignore (Svgic.Algorithms.avg_d_reference inst relax))
          (fun () -> ignore (Svgic.Algorithms.avg_d inst relax))
      in
      let size = m * k in
      [
        mk ~alloc:reference_w "avg_d_full" "naive" size reference;
        mk ~alloc:champion_w "avg_d_full" "champion" size champion;
      ])
    shapes

(* ---------------- LP engine ---------------------------------------- *)

let simp_lp_of (n, m) =
  let rng = Rng.create (3100 + n + m) in
  let inst = Datasets.make Datasets.Timik rng ~n ~m ~k:4 ~lambda:0.5 in
  let problem, _ = Svgic.Lp_build.simp_lp inst in
  problem

(* LP_SIMP programs through the exact engine, one row per
   (shape, rounds). The size field is the LP variable count. *)
let lp_solve_records ~shapes =
  List.map
    (fun (shape, rounds) ->
      let problem = simp_lp_of shape in
      let size = Svgic_lp.Problem.num_vars problem in
      let ns, w =
        time_kernel ~rounds ~ops:1 (fun () ->
            ignore (Svgic_lp.Revised_simplex.solve problem))
      in
      mk ~alloc:w "lp_solve" "revised" size ns)
    shapes

(* What a serving tick pays per touched shard: one 30-user Timik-like
   shard's LP_SIMP (m = 6, k = 4), rebuilt after three preference
   deltas and re-solved warm from the previous optimal basis through
   [Relaxation.solve], as [Serve] does. Every op starts from the same
   basis, so its pivots, rebuilds and words/op are deterministic. The
   size field is the LP variable count. *)
let lp_resolve_records () =
  let n = 30 and m = 6 and k = 4 in
  let rng = Rng.create 3030 in
  let g, _ =
    Svgic_graph.Generate.timik_like rng ~n ~communities:1 ~attach:2
      ~cross_frac:0.0
  in
  let pref = Float.Array.init (n * m) (fun _ -> Rng.float rng 1.0) in
  let tau =
    Float.Array.init
      (Svgic_graph.Graph.num_edges g * m)
      (fun _ -> Rng.float rng 0.5)
  in
  let inst = Svgic.Instance.of_flat ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau in
  let warm =
    match (Svgic.Relaxation.solve inst).Svgic.Relaxation.basis with
    | Some b -> b
    | None -> failwith "lp_resolve: the shard must solve exactly"
  in
  List.iter
    (fun (user, item, v) ->
      ignore (Svgic.Instance.set_pref inst ~user ~item v : float))
    [ (3, 1, 0.95); (11, 4, 0.02); (27, 0, 0.6) ];
  let resolve () = Svgic.Relaxation.solve ~warm inst in
  let note =
    match (resolve ()).Svgic.Relaxation.lp_stats with
    | Some s ->
        Printf.sprintf "%d pivots, %d refactorizations per warm re-solve"
          s.Svgic.Relaxation.pivots
          s.Svgic.Relaxation.factor.Svgic_lp.Revised_simplex.refactorizations
    | None -> failwith "lp_resolve: the re-solve must be exact"
  in
  let ns, w = time_kernel ~rounds:3 ~ops:20 (fun () -> ignore (resolve ())) in
  let size = (n + Svgic.Instance.num_pairs inst) * m in
  [ mk ~alloc:w ~note "lp_resolve" "warm" size ns ]

(* Cold exact solves of the two shard shapes the repository benchmark
   solves most, LP_SIMP at m = 6, k = 4 from the all-logical basis: a
   30-user Timik-like serving shard (serve_drift's shards) and a
   30-user planted community at p_in = 0.2 (a plan_unlabelled shard,
   about 1,050 rows). Each op solves the same program, so the note's
   pivot and rebuild counts are deterministic. The size field is the
   LP variable count. *)
let lp_cold_records ~smoke =
  let shard_lp variant ~ops graph =
    let rng = Rng.create 3131 in
    let g = graph rng in
    let m = 6 in
    let pref =
      Float.Array.init (Svgic_graph.Graph.n g * m) (fun _ -> Rng.float rng 1.0)
    in
    let tau =
      Float.Array.init
        (Svgic_graph.Graph.num_edges g * m)
        (fun _ -> Rng.float rng 0.5)
    in
    let inst = Svgic.Instance.of_flat ~graph:g ~m ~k:4 ~lambda:0.5 ~pref ~tau in
    let problem, _ = Svgic.Lp_build.simp_lp inst in
    let module RS = Svgic_lp.Revised_simplex in
    let note =
      match RS.solve problem with
      | RS.Optimal s ->
          Printf.sprintf "%d pivots, %d refactorizations per cold solve"
            s.RS.pivots s.RS.stats.RS.refactorizations
      | RS.Infeasible | RS.Unbounded | RS.Timeout _ ->
          failwith "lp_cold: the shard must solve"
    in
    let ns, w =
      time_kernel ~rounds:(if smoke then 2 else 3) ~ops (fun () ->
          ignore (RS.solve problem))
    in
    mk ~alloc:w ~note "lp_cold" variant (Svgic_lp.Problem.num_vars problem) ns
  in
  [
    shard_lp "timik30" ~ops:10 (fun rng ->
        fst
          (Svgic_graph.Generate.timik_like rng ~n:30 ~communities:1 ~attach:2
             ~cross_frac:0.0));
    shard_lp "planted30" ~ops:1 (fun rng ->
        fst
          (Svgic_graph.Generate.planted_partition rng ~n:30 ~communities:1
             ~p_in:0.2 ~p_out:0.0));
  ]

(* Characterizes the LU rebuild itself, off the counters of a normal
   solve: ns_per_op is factor time per rebuild, and the note
   carries the fill ratio (factor nonzeros over basis-column nonzeros
   at the last rebuild) and how many pivots/update etas one base
   factorization absorbs before the fill-growth policy asks for the
   next. *)
let lp_refactor_records ~shapes =
  let module RS = Svgic_lp.Revised_simplex in
  List.filter_map
    (fun shape ->
      let problem = simp_lp_of shape in
      let size = Svgic_lp.Problem.num_vars problem in
      match RS.solve problem with
      | RS.Optimal sol ->
          let s = sol.RS.stats in
          let rebuilds = max 1 s.RS.refactorizations in
          let per_rebuild = s.RS.factor_s *. 1e9 /. float_of_int rebuilds in
          let note =
            Printf.sprintf
              "%d rebuilds over %d pivots (%.1f pivots/rebuild); fill %d nnz \
               / basis %d nnz (ratio %.2f); %d update etas"
              s.RS.refactorizations sol.RS.pivots
              (float_of_int sol.RS.pivots /. float_of_int rebuilds)
              s.RS.fill_nnz s.RS.basis_nnz
              (float_of_int s.RS.fill_nnz
              /. float_of_int (max 1 s.RS.basis_nnz))
              s.RS.eta_appends
          in
          Some (mk ~note "lp_refactor" "lu" size per_rebuild)
      | RS.Infeasible | RS.Unbounded | RS.Timeout _ -> None)
    shapes

(* ---------------- AVG phase split: LP solve vs rounding ----------- *)

(* Where an AVG run spends its time per instance size: the relaxation
   solve (config phase) and the AVG-D rounding that consumes it. Not a
   before/after pair — the two rows per size are the phase split. *)
let lp_phase_records ~shapes =
  List.concat_map
    (fun (n, m, k) ->
      let rng = Rng.create (2500 + n + m + k) in
      let inst = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5 in
      let relax = Svgic.Relaxation.solve inst in
      let lp, lp_w =
        time_kernel ~rounds:2 ~ops:1 (fun () ->
            ignore (Svgic.Relaxation.solve inst))
      in
      let ops = max 4 (1_000_000 / (n * m * k)) in
      let rounding, rounding_w =
        time_kernel ~rounds:3 ~ops (fun () ->
            ignore (Svgic.Algorithms.avg_d inst relax))
      in
      let size = m * k in
      [
        mk ~alloc:lp_w "lp_phase" "lp_solve" size lp;
        mk ~alloc:rounding_w "lp_phase" "rounding" size rounding;
      ])
    shapes

(* ---------------- Pool fan-out ------------------------------------ *)

let pool_records ~repeats ~shape:(n, m, k) =
  let rng = Rng.create 4242 in
  let inst = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5 in
  let relax = Svgic.Relaxation.solve inst in
  let run domains () =
    ignore
      (Svgic.Algorithms.avg_best_of ~domains ~repeats (Rng.create 77) inst relax)
  in
  let avail = Pool.available_domains () in
  let (serial, serial_w), (parallel, parallel_w) =
    time_pair ~rounds:3 ~ops:2 (run 1) (run avail)
  in
  [
    mk ~domains:1 ~alloc:serial_w "pool_best_of" "serial" repeats serial;
    mk ~domains:avail ~note:(fanout_note avail) ~alloc:parallel_w
      "pool_best_of" "parallel" repeats parallel;
  ]

(* What a fan-out costs before any block runs: an empty
   [parallel_for ~domains:2 2], whose block 1 runs on a resident
   worker. Timed after a warm-up call; the first call after
   [Pool.shutdown] starts the worker, and its cost is the note. *)
let pool_fanout_records () =
  let fanout () = Pool.parallel_for ~domains:2 2 ignore in
  Pool.shutdown ();
  let t = Timer.start () in
  fanout ();
  let first_us = Timer.elapsed_s t *. 1e6 in
  let ns, w = time_kernel ~rounds:3 ~ops:200 fanout in
  [
    mk ~domains:2 ~alloc:w
      ~note:
        (Printf.sprintf
           "first call %.0f us, starting the worker; %s" first_us
           (fanout_note 2))
      "pool_fanout" "empty" 2 ns;
  ]

(* The tax idle resident workers put on serial code: OCaml 5's minor
   collection stops every domain, and an idle worker answers through
   its backup thread. The same allocation-bound loop runs after
   [Pool.shutdown] ([alone]) and with one resident worker started and
   idle ([idle_workers]); rounds alternate which goes first, after an
   untimed warm-up of each. The note turns the difference into
   microseconds per minor collection of the loop. *)
let pool_idle_gc_records () =
  let blocks = 400_000 in
  let loop () =
    for _ = 1 to blocks do
      ignore (Sys.opaque_identity (Bytes.create 2000))
    done
  in
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  let measure idle =
    if idle then Pool.parallel_for ~domains:2 2 ignore else Pool.shutdown ();
    let c0 = minors () in
    let w0 = window_start () in
    let t = Timer.start () in
    loop ();
    let dt = Timer.elapsed_s t in
    (dt, words_now () -. w0, minors () - c0)
  in
  ignore (measure false);
  ignore (measure true);
  let best = [| infinity; infinity |] and words = [| 0.0; 0.0 |] in
  let collections = ref 0 in
  for r = 1 to 5 do
    List.iter
      (fun idle ->
        let dt, w, c = measure idle in
        let i = Bool.to_int idle in
        if dt < best.(i) then best.(i) <- dt;
        if r = 1 then begin
          words.(i) <- w;
          if not idle then collections := c
        end)
      (if r land 1 = 1 then [ false; true ] else [ true; false ])
  done;
  let extra_us =
    (best.(1) -. best.(0)) *. 1e6 /. float_of_int (max 1 !collections)
  in
  [
    mk ~domains:1 ~alloc:words.(0) "pool_idle_gc" "alone" blocks
      (best.(0) *. 1e9);
    mk ~domains:2 ~alloc:words.(1)
      ~note:
        (Printf.sprintf
           "%d minor collections; %+.1f us per minor collection with one \
            idle worker"
           !collections extra_us)
      "pool_idle_gc" "idle_workers" blocks (best.(1) *. 1e9);
  ]

(* ---------------- Frank-Wolfe engine ------------------------------ *)

(* Synthetic sparse pairwise problem. The Timik generator's pair
   weights are fully dense in the item dimension, so the regime the
   CSR engine targets — most (pair, item) weights zero — is generated
   directly: [density] of the weights are non-zero. *)
let fw_sparse_problem seed ~n ~m ~k ~edges ~density =
  let rng = Rng.create seed in
  let linear =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let pairs =
    Array.init edges (fun _ ->
        let u = Rng.int rng n in
        let v = (u + 1 + Rng.int rng (n - 1)) mod n in
        let w =
          Array.init m (fun _ ->
              if Rng.bernoulli rng density then Rng.float rng 0.6 else 0.0)
        in
        (min u v, max u v, w))
  in
  Svgic_lp.Pairwise_fw.{ n; m; k; linear; pairs }

(* The sparse engine, serial, on a fixed iteration schedule: the flat
   pair entries, pair pass + user pass and insertion oracle, without
   the fan-out. The size field is m·k, matching the other config-phase
   kernels. *)
let fw_solve_records ~shapes =
  List.map
    (fun (n, m, k) ->
      let p =
        fw_sparse_problem (5100 + n + m + k) ~n ~m ~k ~edges:(4 * n)
          ~density:0.1
      in
      let iterations = 40 in
      let sparse, sparse_w =
        time_kernel ~ops:1 (fun () ->
            ignore (Svgic_lp.Pairwise_fw.solve ~iterations ~domains:1 p))
      in
      mk ~alloc:sparse_w "fw_solve" "sparse" (m * k) sparse)
    shapes

(* Frank-Wolfe serial vs fanned out over every available domain, on
   Timik-like instances at m = 12 (plan_large's shards are the 300-user
   row) and a fixed 300-iteration schedule. [size] is n·m, the quantity
   [Pairwise_fw]'s default fan-out rule reads; the full-scale sizes
   bracket the crossover where two domains start to pay. The [domains]
   field records what the parallel side actually ran with: on a
   single-domain box the row measures fan-out overhead, not
   parallelism, and the speedup derivation skips it. Both rows' notes
   give the share of CPU time the host stole while the pair ran. *)
let fw_mc_crossover_users = [ 25; 50; 100; 200; 300; 600; 1200; 2400; 6000 ]

let fw_mc_records ~users =
  let m = 12 and k = 4 and iterations = 300 in
  let avail = Pool.available_domains () in
  List.concat_map
    (fun n ->
      let rng = Rng.create (5200 + n) in
      let inst = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5 in
      let p = Svgic.Lp_build.fw_problem inst in
      let before = cpu_jiffies () in
      let (serial, serial_w), (parallel, parallel_w) =
        time_pair ~rounds:5 ~ops:1
          (fun () ->
            ignore (Svgic_lp.Pairwise_fw.solve ~iterations ~domains:1 p))
          (fun () ->
            ignore (Svgic_lp.Pairwise_fw.solve ~iterations ~domains:avail p))
      in
      let steal = steal_note before (cpu_jiffies ()) in
      let size = n * m in
      [
        mk ~domains:1 ~note:steal ~alloc:serial_w "fw_solve_mc" "serial" size
          serial;
        mk ~domains:avail
          ~note:(fanout_note avail ^ "; " ^ steal)
          ~alloc:parallel_w "fw_solve_mc" "parallel" size parallel;
      ])
    users

(* The full relaxation (scaled Timik instance) through the exact
   revised simplex and through the first-order engine, at a scale past
   the exact-solve time envelope. The note on the fw row records the
   relative objective error against the exact optimum, and the
   achieved duality gap. *)
let fw_vs_exact_records ~shapes =
  List.concat_map
    (fun (n, m, k) ->
      let rng = Rng.create (5300 + n + m + k) in
      let inst = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5 in
      let problem, _ = Svgic.Lp_build.simp_lp inst in
      let size = Svgic_lp.Problem.num_vars problem in
      let exact = ref None in
      let t_exact, exact_w =
        time_kernel ~rounds:1 ~ops:1 (fun () ->
            exact :=
              Some
                (Svgic.Relaxation.solve
                   ~backend:Svgic.Relaxation.Exact_simplex inst))
      in
      let fw = ref None in
      let t_fw, fw_w =
        time_kernel ~rounds:1 ~ops:1 (fun () ->
            fw :=
              Some
                (Svgic.Relaxation.solve
                   ~backend:
                     (Svgic.Relaxation.Frank_wolfe
                        {
                          iterations = 1_200;
                          smoothing = 0.005;
                          gap_tol = Some 0.05;
                          domains = Some 1;
                        })
                   inst))
      in
      let exact = Option.get !exact and fw = Option.get !fw in
      let rel_err =
        (exact.Svgic.Relaxation.scaled_objective
        -. fw.Svgic.Relaxation.scaled_objective)
        /. Float.max 1e-12 (Float.abs exact.Svgic.Relaxation.scaled_objective)
      in
      let note =
        Printf.sprintf "objective %.3f%% below exact; duality gap %.3g"
          (100.0 *. rel_err)
          (Option.value ~default:Float.nan fw.Svgic.Relaxation.fw_gap)
      in
      [
        mk ~alloc:exact_w "fw_vs_exact" "exact" size t_exact;
        mk ~note ~alloc:fw_w "fw_vs_exact" "fw" size t_fw;
      ])
    shapes

(* ---------------- supervision overhead ---------------------------- *)

(* Clean-path cost of solve supervision (DESIGN.md §5): the same
   program through the revised simplex / Frank-Wolfe engine bare vs
   with an unlimited token threaded through the hot loop. The
   degradation ladder engages only on failure, so the pair isolates
   the per-iteration poll (one atomic read + gettimeofday) — budgeted
   at < 2% of the clean path. *)
let fault_ladder_records ~lp_shapes ~fw_shapes =
  let module Supervise = Svgic_util.Supervise in
  let lp_rows =
    List.concat_map
      (fun shape ->
        let problem = simp_lp_of shape in
        let size = Svgic_lp.Problem.num_vars problem in
        let (bare, bare_w), (supervised, supervised_w) =
          time_pair ~rounds:5 ~ops:1
            (fun () -> ignore (Svgic_lp.Revised_simplex.solve problem))
            (fun () ->
              ignore
                (Svgic_lp.Revised_simplex.solve
                   ~token:(Supervise.unlimited ())
                   problem))
        in
        [
          mk ~alloc:bare_w "fault_ladder" "lp_bare" size bare;
          mk ~alloc:supervised_w "fault_ladder" "lp_supervised" size supervised;
        ])
      lp_shapes
  in
  lp_rows
  @ List.concat_map
      (fun (n, m, k) ->
        let p =
          fw_sparse_problem (5400 + n + m + k) ~n ~m ~k ~edges:(4 * n)
            ~density:0.1
        in
        let iterations = 40 in
        let (bare, bare_w), (supervised, supervised_w) =
          time_pair ~rounds:5 ~ops:1
            (fun () ->
              ignore (Svgic_lp.Pairwise_fw.solve ~iterations ~domains:1 p))
            (fun () ->
              ignore
                (Svgic_lp.Pairwise_fw.solve ~iterations ~domains:1
                   ~token:(Supervise.unlimited ())
                   p))
        in
        let size = m * k in
        [
          mk ~alloc:bare_w "fault_ladder" "fw_bare" size bare;
          mk ~alloc:supervised_w "fault_ladder" "fw_supervised" size supervised;
        ])
      fw_shapes

(* ---------------- St.total_utility -------------------------------- *)

(* Seed discipline: one fresh k-entry Hashtbl per user per call,
   against the rewritten single reusable item->slot scratch array. *)
let st_naive inst ~dtel cfg =
  let n = Svgic.Instance.n inst and k = Svgic.Instance.k inst in
  let lambda = Svgic.Instance.lambda inst in
  let slot_of =
    Array.init n (fun u ->
        let table = Hashtbl.create k in
        for s = 0 to k - 1 do
          Hashtbl.replace table (Svgic.Config.item cfg ~user:u ~slot:s) s
        done;
        table)
  in
  let pref_part = ref 0.0 in
  for u = 0 to n - 1 do
    for s = 0 to k - 1 do
      pref_part :=
        !pref_part
        +. Svgic.Instance.pref inst u (Svgic.Config.item cfg ~user:u ~slot:s)
    done
  done;
  let social_part = ref 0.0 in
  Array.iter
    (fun (u, v) ->
      for s = 0 to k - 1 do
        let c = Svgic.Config.item cfg ~user:u ~slot:s in
        match Hashtbl.find_opt slot_of.(v) c with
        | Some s' when s' = s ->
            social_part := !social_part +. Svgic.Instance.tau inst u v c
        | Some _ ->
            social_part := !social_part +. (dtel *. Svgic.Instance.tau inst u v c)
        | None -> ()
      done)
    (Svgic_graph.Graph.edges (Svgic.Instance.graph inst));
  ((1.0 -. lambda) *. !pref_part) +. (lambda *. !social_part)

let st_total_utility_records ~shapes =
  List.concat_map
    (fun (n, m, k) ->
      let rng = Rng.create (6400 + n + m + k) in
      let inst = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5 in
      let cfg = Svgic.Baselines.personalized inst in
      let ops = max 20 (4_000_000 / (n * k * 8)) in
      let (naive, naive_w), (reuse, reuse_w) =
        time_pair ~rounds:5 ~ops
          (fun () -> ignore (st_naive inst ~dtel:0.5 cfg))
          (fun () -> ignore (Svgic.St.total_utility inst ~dtel:0.5 cfg))
      in
      let size = n * k in
      [
        mk ~alloc:naive_w "st_total_utility" "naive" size naive;
        mk ~alloc:reuse_w "st_total_utility" "reuse" size reuse;
      ])
    shapes

(* ---------------- community detection ----------------------------- *)

(* Linux sets VmHWM back to the current RSS on "5" > clear_refs, which
   scopes the next peak reading to whatever runs in between. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc ->
      output_string oc "5";
      close_out oc;
      true
  | exception Sys_error _ -> false

(* Greedy modularity (what [Shard.Modularity] and the SDP baseline
   run) on the plan_unlabelled benchmark graph, and on a Timik-like
   graph shaped like the serve rows' (communities of 100 users). The
   note carries the labelling's shape and the peak-RSS growth of one
   detection over the compacted heap it started from; the timed rounds
   follow it. *)
let community_detect_records ~timik_users =
  let module Generate = Svgic_graph.Generate in
  let module Graph = Svgic_graph.Graph in
  let planted, _ =
    Generate.planted_partition (Rng.create 240) ~n:240 ~communities:8
      ~p_in:0.2 ~p_out:0.003
  in
  let timik, _ =
    Generate.timik_like (Rng.create 7300) ~n:timik_users
      ~communities:(timik_users / 100) ~attach:2 ~cross_frac:0.02
  in
  List.map
    (fun (variant, g, ops) ->
      Gc.compact ();
      let rss0 = Svgic_util.Rss.current_rss_bytes () in
      let scoped = reset_peak_rss () in
      let labels = Svgic_graph.Community.greedy_modularity g in
      let growth =
        match (scoped, rss0, Svgic_util.Rss.peak_rss_bytes ()) with
        | true, Some r0, Some peak ->
            Printf.sprintf "peak RSS +%.1f MB" (float (peak - r0) /. 1e6)
        | _ -> "peak RSS growth unavailable"
      in
      let ns, words =
        time_kernel ~ops (fun () ->
            ignore (Svgic_graph.Community.greedy_modularity g))
      in
      let cut = ref 0 in
      Graph.iteri_pairs g (fun _ u v -> if labels.(u) <> labels.(v) then incr cut);
      let note =
        Printf.sprintf "%d communities, %d of %d pairs cut; %s"
          (Array.fold_left (fun acc l -> max acc (l + 1)) 0 labels)
          !cut (Graph.num_pairs g) growth
      in
      mk ~note ~alloc:words "community_detect" variant (Graph.n g) ns)
    [ ("plan_unlabelled", planted, 20); ("timik", timik, 1) ]

(* ---------------- induced subgraph -------------------------------- *)

(* One 30-user community cut out of a Timik-like graph: the shape of a
   serving shard's per-tick [Instance.restrict_users]. The cost should
   follow the community's out-degree sum, not the graph's size. *)
let subgraph_records ~users =
  let module Graph = Svgic_graph.Graph in
  let communities = users / 30 in
  let g, labels =
    Svgic_graph.Generate.timik_like (Rng.create 7400) ~n:users ~communities
      ~attach:2 ~cross_frac:0.02
  in
  (* The generator hands the remainder users to the first communities,
     so the last one has exactly [users / communities] = 30 members. *)
  let members =
    Array.of_list
      (List.filter
         (fun u -> labels.(u) = communities - 1)
         (List.init users Fun.id))
  in
  let sub, _ = Graph.subgraph g members in
  let ns, words =
    time_kernel ~ops:(max 20 (2_000_000 / users)) (fun () ->
        ignore (Graph.subgraph g members))
  in
  let note =
    Printf.sprintf "%d-user community, %d induced edges" (Array.length members)
      (Graph.num_edges sub)
  in
  [ mk ~note ~alloc:words "subgraph" "community" users ns ]

(* ---------------- end-to-end pipeline: monolith vs sharded -------- *)

(* Planted-community instance: [blobs] dense blobs bridged by one edge
   per consecutive pair, so modularity sharding recovers the blobs and
   the cut stays thin. The Timik generator is not used here because its
   graphs have no community structure to exploit. *)
let planted_instance seed ~blobs ~blob_size ~m ~k =
  let rng = Rng.create seed in
  let n = blobs * blob_size in
  let edges = ref [] in
  for b = 0 to blobs - 1 do
    let base = b * blob_size in
    for i = 0 to blob_size - 1 do
      for j = i + 1 to blob_size - 1 do
        if Rng.bernoulli rng 0.4 then begin
          edges := (base + i, base + j) :: !edges;
          if Rng.bool rng then edges := (base + j, base + i) :: !edges
        end
      done
    done
  done;
  for b = 0 to blobs - 2 do
    edges := (b * blob_size, (b + 1) * blob_size) :: !edges
  done;
  let g = Svgic_graph.Graph.of_edges ~n !edges in
  let pref =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let tau_tbl = Hashtbl.create 64 in
  Array.iter
    (fun (u, v) ->
      Hashtbl.replace tau_tbl (u, v)
        (Array.init m (fun _ -> Rng.float rng 0.5)))
    (Svgic_graph.Graph.edges g);
  let tau u v c =
    match Hashtbl.find_opt tau_tbl (u, v) with
    | Some row -> row.(c)
    | None -> 0.0
  in
  Svgic.Instance.create ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau

let pipeline_rounding = Svgic.Shard.Avg_d { r = None }

let run_sharded_pipeline ~domains inst () =
  let part = Svgic.Shard.partition ~labelling:Svgic.Shard.Modularity inst in
  ignore
    (Svgic.Shard.solve_round ~domains ~rounding:pipeline_rounding
       (Rng.create 7) part)

(* Full config-phase + rounding cost, both sides serial: the speedup
   here is purely the smaller per-shard LP programs (power-law solve
   cost), not parallelism. The size field is the monolith's LP_SIMP
   variable count. *)
let pipeline_records ~shape:(blobs, blob_size, m, k) =
  let inst =
    planted_instance (6100 + (blobs * blob_size) + m + k) ~blobs ~blob_size ~m
      ~k
  in
  let size = Svgic_lp.Problem.num_vars (fst (Svgic.Lp_build.simp_lp inst)) in
  let part = Svgic.Shard.partition ~labelling:Svgic.Shard.Modularity inst in
  let res =
    Svgic.Shard.solve_round ~domains:1 ~rounding:pipeline_rounding
      (Rng.create 7) part
  in
  let relax = Svgic.Relaxation.solve inst in
  let mono_obj =
    Svgic.Config.total_utility inst (Svgic.Algorithms.avg_d ~domains:1 inst relax)
  in
  let (monolith, monolith_w), (sharded, sharded_w) =
    time_pair ~rounds:3 ~ops:1
      (fun () ->
        let relax = Svgic.Relaxation.solve inst in
        ignore (Svgic.Algorithms.avg_d ~domains:1 inst relax))
      (run_sharded_pipeline ~domains:1 inst)
  in
  let note =
    Printf.sprintf
      "%d modularity shards, cut mass %.2f; objective %.4f vs monolith %.4f"
      (Array.length part.Svgic.Shard.shards)
      res.Svgic.Shard.cut_mass res.Svgic.Shard.objective mono_obj
  in
  [
    mk ~alloc:monolith_w "pipeline" "monolith" size monolith;
    mk ~domains:1 ~note ~alloc:sharded_w "pipeline" "sharded" size sharded;
  ]

(* The sharded pipeline serial vs fanned out over every available
   domain (shard-level parallelism on top of the smaller programs). *)
let pipeline_mc_records ~shape:(blobs, blob_size, m, k) =
  let inst =
    planted_instance (6200 + (blobs * blob_size) + m + k) ~blobs ~blob_size ~m
      ~k
  in
  let size = Svgic_lp.Problem.num_vars (fst (Svgic.Lp_build.simp_lp inst)) in
  let avail = Pool.available_domains () in
  let (serial, serial_w), (parallel, parallel_w) =
    time_pair ~rounds:3 ~ops:1
      (run_sharded_pipeline ~domains:1 inst)
      (run_sharded_pipeline ~domains:avail inst)
  in
  [
    mk ~domains:1 ~alloc:serial_w "pipeline_mc" "serial" size serial;
    mk ~domains:avail ~note:(fanout_note avail) ~alloc:parallel_w
      "pipeline_mc" "parallel" size parallel;
  ]

(* ---------------- zero-copy shard views --------------------------- *)

(* Community-structured instance straight onto flat arenas (the hot
   constructor path); returns the instance and the generator's labels
   so partitioning skips community detection. *)
let flat_community_instance seed ~n ~communities ~m ~k =
  let rng = Rng.create seed in
  let g, labels =
    Svgic_graph.Generate.timik_like rng ~n ~communities ~attach:2
      ~cross_frac:0.02
  in
  let pref = Float.Array.init (n * m) (fun _ -> Rng.float rng 1.0) in
  let tau =
    Float.Array.init
      (Svgic_graph.Graph.num_edges g * m)
      (fun _ -> Rng.float rng 0.5)
  in
  (Svgic.Instance.of_flat ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau, labels)

(* Zero-copy partition (views over shared arenas) against the same
   partition materialized into per-shard copies — the pre-arena
   behavior. The allocation column is the acceptance criterion: the
   view side allocates only remap tables, O(n + edges) words, no
   per-shard pref/τ/adjacency copies. *)
let shard_partition_records ~shape:(n, communities, m, k) =
  let inst, labels =
    flat_community_instance (7100 + n + communities) ~n ~communities ~m ~k
  in
  let labelling = Svgic.Shard.Labels labels in
  let (materialized, materialized_w), (views, views_w) =
    time_pair ~rounds:3 ~ops:1
      (fun () ->
        ignore
          (Svgic.Shard.materialize_shards
             (Svgic.Shard.partition ~labelling inst)))
      (fun () -> ignore (Svgic.Shard.partition ~labelling inst))
  in
  let note =
    Printf.sprintf "%d communities, %d edges, arena %.1f MB" communities
      (Svgic.Instance.num_edges inst)
      (float_of_int (Svgic.Instance.arena_bytes inst) /. 1048576.0)
  in
  [
    mk ~alloc:materialized_w "shard_partition" "materialized" n materialized;
    mk ~note ~alloc:views_w "shard_partition" "views" n views;
  ]

(* ---------------- zero-allocation hot sweeps ---------------------- *)

(* Words/op measured outside the timing machinery: the counter
   readbacks and the timer box cost a small constant number of words
   per *measurement*, which the op count dilutes below the assert
   threshold — a single real allocation per op (≥ 2 words) lands 40x
   above it. *)
let time_zero_alloc ~ops f =
  f ();
  (* warm-up: forces lazies and any one-time arena growth *)
  let t = Timer.start () in
  let w0 = words_now () in
  for _ = 1 to ops do
    f ()
  done;
  let dw = words_now () -. w0 in
  let dt = Timer.elapsed_s t in
  (dt *. 1e9 /. float_of_int ops, dw /. float_of_int ops)

(* The two per-iteration hot paths the GC pass pinned to zero
   minor-heap allocation: the Frank-Wolfe sweep (serial path; pair
   pass, then dot products + top-k oracle + gap per user) and the
   AVG-D slot-eval sweep (prepare one slot, re-score every item).
   Regressions fail the bench run itself — and the CI grep on the
   emitted 0.0 — rather than just drifting the baseline. *)
let zero_alloc_records ~fw_shape:(n, m, k) ~csf_shape:(cn, cm, ck) =
  let assert_zero name w =
    if w > 0.05 then
      failwith
        (Printf.sprintf
           "zero-alloc regression: %s allocates %.3f words/op (expected 0)"
           name w)
  in
  let p =
    fw_sparse_problem (8100 + n + m + k) ~n ~m ~k ~edges:(4 * n) ~density:0.1
  in
  let st = Svgic_lp.Pairwise_fw.sweep_state p in
  let fw_ops = max 1_000 (20_000_000 / (n * m * k)) in
  let fw_ns, fw_w =
    time_zero_alloc ~ops:fw_ops (fun () -> Svgic_lp.Pairwise_fw.sweep_serial st)
  in
  assert_zero "fw_sweep" fw_w;
  (* The pair pass takes one exp per (pair, item) with a non-zero
     weight. *)
  let exps =
    Array.fold_left
      (fun acc (_, _, w) ->
        Array.fold_left (fun a wc -> if wc <> 0.0 then a + 1 else a) acc w)
      0 p.pairs
  in
  let fw_note = Printf.sprintf "%d exp per sweep" exps in
  let rng = Rng.create (8200 + cn + cm + ck) in
  let inst = Datasets.make Datasets.Timik rng ~n:cn ~m:cm ~k:ck ~lambda:0.5 in
  let relax = Svgic.Relaxation.solve inst in
  let se = Svgic.Algorithms.Slot_eval.create inst relax in
  let csf_ops = max 1_000 (40_000_000 / (cn * cm)) in
  let csf_ns, csf_w =
    time_zero_alloc ~ops:csf_ops (fun () ->
        Svgic.Algorithms.Slot_eval.sweep se ~slot:0)
  in
  assert_zero "csf_slot_eval" csf_w;
  [
    mk ~alloc:fw_w ~note:fw_note "fw_sweep" "fused" (n * m) fw_ns;
    mk ~alloc:csf_w "csf_slot_eval" "hot" (cn * cm) csf_ns;
  ]

(* ---------------- branch-and-bound -------------------------------- *)

(* The linearized ILP of a pairwise selection program — binary x(u,c)
   rows summing to k, one continuous y(e,c) <= min row pair per
   positive weight — shaped like Lp_build.simp_lp. *)
let pairwise_ilp (p : Svgic_lp.Pairwise_fw.problem) =
  let module Problem = Svgic_lp.Problem in
  let ilp = Problem.create () in
  let x =
    Array.init p.n (fun u ->
        Array.init p.m (fun c ->
            Problem.add_var ilp ~upper:1.0 ~obj:p.linear.(u).(c) ()))
  in
  Array.iter
    (fun row ->
      Problem.add_row ilp
        (Array.to_list (Array.map (fun v -> (v, 1.0)) row))
        Problem.Eq
        (float_of_int p.k))
    x;
  Array.iter
    (fun (u, v, w) ->
      Array.iteri
        (fun c wc ->
          if wc > 0.0 then begin
            let y = Problem.add_var ilp ~upper:1.0 ~obj:wc () in
            Problem.add_row ilp [ (y, 1.0); (x.(u).(c), -1.0) ] Problem.Le 0.0;
            Problem.add_row ilp [ (y, 1.0); (x.(v).(c), -1.0) ] Problem.Le 0.0
          end)
        w)
    p.pairs;
  (ilp, Array.concat (Array.to_list (Array.map Array.copy x)))

(* The simplex-node tree (the IP baseline's engine) proving a
   linearized pairwise ILP exact. The note records the best-first vs
   depth-first node counts (same optimum, different exploration
   order). The rows keep their [bnb_fw] key, which CI's bench-smoke
   greps and the allocation baseline name. *)
let bnb_records ~shapes =
  let module BB = Svgic_lp.Branch_bound in
  List.map
    (fun (n, m, k, edges, density) ->
      let p = fw_sparse_problem (9100 + n + m + k) ~n ~m ~k ~edges ~density in
      let ilp, binaries = pairwise_ilp p in
      let size = Svgic_lp.Problem.num_vars ilp in
      let simplex = ref None in
      let ns, w =
        time_kernel ~rounds:3 ~ops:1 (fun () ->
            simplex := Some (BB.solve ilp ~binary:binaries))
      in
      let sr = Option.get !simplex in
      let dfs =
        BB.solve
          ~options:{ BB.default_options with strategy = BB.Depth_first }
          ilp ~binary:binaries
      in
      if not sr.BB.proved_optimal then
        failwith "bnb_fw: the simplex tree must prove the instance";
      let note =
        Printf.sprintf
          "proved exact; best-first %d nodes vs depth-first %d nodes, %d pivots"
          sr.BB.nodes dfs.BB.nodes sr.BB.pivots
      in
      mk ~alloc:w ~note "bnb_fw" "simplex_bb" size ns)
    shapes

(* ---------------- reporting --------------------------------------- *)

let speedups records =
  (* For every (kernel, size) with exactly a before and an after
     variant, before/after ratio. The first variant listed per kernel
     is the "before" side. *)
  let before_of = function
    | "fenwick" -> Some "naive"
    | "champion" -> Some "naive"
    | "parallel" -> Some "serial"
    | "fw" -> Some "exact"
    | "sharded" -> Some "monolith"
    (* serving pairs: the long-lived engine's per-tick (and per-event)
       cost vs a stateless full re-solve on the same drifted data. *)
    | "incremental" -> Some "cold"
    | "reuse" -> Some "naive"
    | "views" -> Some "materialized"
    (* Supervision pairs: the "speedup" reads as ~1.0x minus the poll
       overhead, documenting the < 2% clean-path budget. *)
    | "lp_supervised" -> Some "lp_bare"
    | "fw_supervised" -> Some "fw_bare"
    | _ -> None
  in
  List.filter_map
    (fun r ->
      match before_of r.variant with
      | None -> None
      (* A fan-out measured with a single domain is overhead, not a
         speedup; deriving a ratio for it would read as a parallel
         regression. *)
      | Some _ when r.variant = "parallel" && r.domains = Some 1 -> None
      | Some before -> (
          match
            List.find_opt
              (fun b -> b.kernel = r.kernel && b.size = r.size && b.variant = before)
              records
          with
          | Some b when r.ns_per_op > 0.0 ->
              Some (r.kernel, r.size, b.ns_per_op /. r.ns_per_op)
          | Some _ | None -> None))
    records

let json_escape s =
  (* Kernel/variant names are plain ASCII identifiers; quote/backslash
     escaping is all that is needed. *)
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The file's closing lines: the "speedups" section derived from
   [records] by [speedups], then the closing brace. *)
let speedups_json records =
  let ratios = speedups records in
  ("  \"speedups\": ["
  :: List.mapi
       (fun i (kernel, size, ratio) ->
         Printf.sprintf "    {\"kernel\": \"%s\", \"size\": %d, \"speedup\": %.2f}%s"
           (json_escape kernel) size ratio
           (if i = List.length ratios - 1 then "" else ","))
       ratios)
  @ [ "  ]"; "}" ]

let write_json ~path ~smoke records =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"svgic.bench.kernels/v3\",\n";
  out "  \"generated_by\": \"dune exec bench/main.exe -- kernels\",\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"available_domains\": %d,\n" (Pool.available_domains ());
  out "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      let domains =
        match r.domains with
        | Some d -> Printf.sprintf ", \"domains\": %d" d
        | None -> ""
      in
      let note =
        match r.note with
        | Some s -> Printf.sprintf ", \"note\": \"%s\"" (json_escape s)
        | None -> ""
      in
      out
        "    {\"kernel\": \"%s\", \"variant\": \"%s\", \"size\": %d, \
         \"ns_per_op\": %.1f, \"allocated_words_per_op\": %.1f%s%s}%s\n"
        (json_escape r.kernel) (json_escape r.variant) r.size r.ns_per_op
        r.allocated_words_per_op domains note
        (if i = List.length records - 1 then "" else ","))
    records;
  out "  ],\n";
  List.iter (out "%s\n") (speedups_json records);
  close_out oc

let print_records records =
  Printf.printf "%-15s %-12s %10s %16s %14s\n" "kernel" "variant" "size"
    "ns/op" "words/op";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun r ->
      Printf.printf "%-15s %-12s %10d %16.1f %14.1f" r.kernel r.variant r.size
        r.ns_per_op r.allocated_words_per_op;
      (match r.domains with
      | Some d -> Printf.printf "  domains=%d" d
      | None -> ());
      (match r.note with
      | Some s -> Printf.printf "  (%s)" s
      | None -> ());
      print_newline ())
    records;
  print_newline ();
  List.iter
    (fun (kernel, size, ratio) ->
      Printf.printf "speedup %-14s size %-8d %8.2fx\n" kernel size ratio)
    (speedups records);
  print_newline ()

(* ---------------- bechamel layer (unchanged) ---------------------- *)

let make_instance () =
  let rng = Rng.create 1700 in
  Datasets.make Datasets.Timik rng ~n:20 ~m:24 ~k:4 ~lambda:0.5

let tests () =
  let inst = make_instance () in
  let relax = Svgic.Relaxation.solve ~backend:Svgic.Relaxation.Exact_simplex inst in
  let fw_problem = Svgic.Lp_build.fw_problem inst in
  let cfg = Svgic.Baselines.personalized inst in
  [
    Test.make ~name:"lp_build.simp"
      (Staged.stage (fun () -> ignore (Svgic.Lp_build.simp_lp inst)));
    Test.make ~name:"simplex.solve_simp"
      (Staged.stage (fun () ->
           ignore
             (Svgic.Relaxation.solve ~backend:Svgic.Relaxation.Exact_simplex inst)));
    Test.make ~name:"fw.40_iterations"
      (Staged.stage (fun () ->
           ignore (Svgic_lp.Pairwise_fw.solve ~iterations:40 fw_problem)));
    Test.make ~name:"csf.avg_rounding"
      (Staged.stage (fun () ->
           let rng = Rng.create 1701 in
           ignore (Svgic.Algorithms.avg rng inst relax)));
    Test.make ~name:"avg_d.full"
      (Staged.stage (fun () -> ignore (Svgic.Algorithms.avg_d inst relax)));
    Test.make ~name:"objective.total_utility"
      (Staged.stage (fun () -> ignore (Svgic.Config.total_utility inst cfg)));
    Test.make ~name:"metrics.regret_ratios"
      (Staged.stage (fun () -> ignore (Svgic.Metrics.regret_ratios inst cfg)));
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let raw_results =
    Benchmark.all cfg instances (Test.make_grouped ~name:"kernels" (tests ()))
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  (Analyze.merge ols instances results, raw_results)

let run_bechamel () =
  let results, _ = benchmark () in
  Hashtbl.iter
    (fun _measure table ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
        table)
    results

(* ---------------- entry point ------------------------------------- *)

let run () =
  Bench_common.heading "kernels" "kernel before/after benchmarks";
  let smoke = smoke () in
  let sampler_sizes = if smoke then [ 64; 256 ] else [ 256; 1024; 4096; 16384 ] in
  let avg_d_shapes =
    if smoke then [ (8, 8, 2) ] else [ (16, 12, 2); (20, 64, 4); (24, 128, 8) ]
  in
  let pool_shape = if smoke then (8, 8, 2) else (20, 24, 4) in
  let pool_repeats = if smoke then 2 else 8 in
  (* LP_SIMP shapes from ~290 to ~1900 variables (three rounds each)
     calibrate Relaxation's exact-solve budget. The ~13k-variable shape
     (one round) is past exact_vars, i.e. the scale Auto hands to the
     Frank-Wolfe engine; its row documents what an exact solve costs
     there, and the fw_vs_exact rows at the same shape document what
     the first-order engine trades for that time. *)
  let lp_shapes =
    if smoke then [ ((8, 12), 3) ]
    else
      List.map
        (fun shape -> (shape, 3))
        [ (8, 12); (12, 16); (20, 24); (19, 26); (24, 26) ]
      @ [ ((50, 80), 1) ]
  in
  let lp_refactor_shapes = if smoke then [ (8, 12) ] else [ (24, 26); (50, 80) ] in
  let za_fw_shape = if smoke then (16, 12, 2) else (256, 128, 8) in
  let za_csf_shape = if smoke then (8, 8, 2) else (24, 128, 8) in
  let lp_phase_shapes =
    if smoke then [ (8, 8, 2) ] else [ (16, 12, 2); (20, 64, 4); (24, 128, 8) ]
  in
  let fw_shapes =
    if smoke then [ (16, 12, 2) ] else [ (96, 64, 6); (256, 128, 8) ]
  in
  let fw_mc_users = if smoke then [ 16 ] else fw_mc_crossover_users in
  let fw_exact_shapes = if smoke then [] else [ (50, 80, 4) ] in
  (* (n, m, k, edges, density): ILPs the simplex tree proves within
     seconds. *)
  let bnb_shapes =
    if smoke then [ (5, 6, 2, 8, 0.3) ]
    else [ (64, 20, 2, 64, 0.15); (128, 24, 3, 128, 0.15) ]
  in
  let st_shapes =
    if smoke then [ (8, 8, 2) ] else [ (16, 12, 2); (40, 64, 4); (80, 96, 6) ]
  in
  let ladder_lp_shapes = if smoke then [ (8, 12) ] else [ (20, 24); (24, 26) ] in
  let ladder_fw_shapes = if smoke then [ (16, 12, 2) ] else [ (96, 64, 6) ] in
  (* The monolith must sit in the exact-solve regime for the serial
     comparison to isolate the power-law LP cost: (blobs, blob_size,
     m, k) below gives ~3.5k monolith LP variables against four
     ~900-variable shard programs, all on the revised simplex. *)
  let pipeline_shape = if smoke then (4, 4, 8, 2) else (4, 10, 30, 4) in
  let shard_partition_shape =
    if smoke then (5_000, 10, 6, 2) else (200_000, 200, 8, 4)
  in
  let community_timik_users = if smoke then 10_000 else 100_000 in
  (* The builders run in the order listed (an [@] chain would evaluate
     them right to left): the first fan-out of the process starts the
     pool's workers, so the order decides which row pays for that. *)
  let records =
    List.concat_map
      (fun build -> build ())
      [
        (fun () -> weighted_draw_records ~sizes:sampler_sizes);
        (fun () -> avg_d_select_records ~sizes:sampler_sizes);
        (fun () -> avg_d_end_to_end_records ~shapes:avg_d_shapes);
        (fun () -> lp_solve_records ~shapes:lp_shapes);
        (fun () -> lp_refactor_records ~shapes:lp_refactor_shapes);
        lp_resolve_records;
        (fun () -> lp_cold_records ~smoke);
        (fun () -> lp_phase_records ~shapes:lp_phase_shapes);
        (fun () -> pool_records ~repeats:pool_repeats ~shape:pool_shape);
        pool_fanout_records;
        pool_idle_gc_records;
        (fun () -> fw_solve_records ~shapes:fw_shapes);
        (fun () -> fw_mc_records ~users:fw_mc_users);
        (fun () -> fw_vs_exact_records ~shapes:fw_exact_shapes);
        (fun () -> bnb_records ~shapes:bnb_shapes);
        (fun () ->
          fault_ladder_records ~lp_shapes:ladder_lp_shapes
            ~fw_shapes:ladder_fw_shapes);
        (fun () -> st_total_utility_records ~shapes:st_shapes);
        (fun () -> community_detect_records ~timik_users:community_timik_users);
        (fun () -> subgraph_records ~users:community_timik_users);
        (fun () -> pipeline_records ~shape:pipeline_shape);
        (fun () -> pipeline_mc_records ~shape:pipeline_shape);
        (fun () -> shard_partition_records ~shape:shard_partition_shape);
        (fun () ->
          zero_alloc_records ~fw_shape:za_fw_shape ~csf_shape:za_csf_shape);
      ]
  in
  print_records records;
  let path = "BENCH_kernels.json" in
  write_json ~path ~smoke records;
  Printf.printf "wrote %s\n" path;
  if not smoke then begin
    Bench_common.heading "kernels" "Bechamel kernel micro-benchmarks";
    run_bechamel ()
  end
