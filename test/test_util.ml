(* Tests for the svgic_util library: RNG, statistics, heap, union-find
   and selection helpers. *)

module Rng = Svgic_util.Rng
module Stats = Svgic_util.Stats
module Heap = Svgic_util.Heap
module Union_find = Svgic_util.Union_find
module Select = Svgic_util.Select
module Fenwick = Svgic_util.Fenwick
module Pool = Svgic_util.Pool

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

(* --------------------------- RNG ---------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = Array.init 20 (fun _ -> Rng.int child 1000) in
  let ys = Array.init 20 (fun _ -> Rng.int parent 1000) in
  Alcotest.(check bool) "child differs from parent" true (xs <> ys)

let test_rng_split_n_deterministic () =
  (* Same parent seed => the same family of child streams, index by
     index — the reproducibility contract for per-block sampling. *)
  let draw_children seed =
    let parent = Rng.create seed in
    Array.map
      (fun child -> Array.init 16 (fun _ -> Rng.int child 1_000_000))
      (Rng.split_n parent 6)
  in
  Alcotest.(check bool) "replayed family identical" true
    (draw_children 42 = draw_children 42);
  (* split_n is exactly repeated split: block i's stream does not
     depend on how many siblings are derived after it. *)
  let a = Rng.create 42 in
  let first_of_three = (Rng.split_n a 3).(0) in
  let b = Rng.create 42 in
  let first_of_six = (Rng.split_n b 6).(0) in
  Alcotest.(check bool) "prefix-stable across family size" true
    (Array.init 16 (fun _ -> Rng.int first_of_three 1_000_000)
    = Array.init 16 (fun _ -> Rng.int first_of_six 1_000_000))

let test_rng_split_n_independent () =
  let parent = Rng.create 7 in
  let children = Rng.split_n parent 5 in
  let streams =
    Array.map (fun c -> Array.init 24 (fun _ -> Rng.int c 1_000_000)) children
  in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "streams %d and %d differ" i j)
              true (si <> sj))
        streams)
    streams;
  (* The parent keeps drawing a distinct stream of its own. *)
  let parent_draws = Array.init 24 (fun _ -> Rng.int parent 1_000_000) in
  Array.iter
    (fun s -> Alcotest.(check bool) "parent differs" true (s <> parent_draws))
    streams

let test_rng_ranges () =
  let rng = Rng.create 11 in
  for _ = 1 to 500 do
    let i = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 10);
    let f = Rng.uniform rng in
    Alcotest.(check bool) "uniform in range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_bernoulli_bias () =
  let rng = Rng.create 3 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let xs = Array.init 30_000 (fun _ -> Rng.gaussian rng ~mean:2.0 ~stddev:3.0) in
  Alcotest.(check bool) "mean near 2" true (Float.abs (Stats.mean xs -. 2.0) < 0.1);
  Alcotest.(check bool) "stddev near 3" true (Float.abs (Stats.stddev xs -. 3.0) < 0.1)

let test_rng_pick_weighted () =
  let rng = Rng.create 9 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.pick_weighted rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let total = float_of_int (counts.(0) + counts.(1) + counts.(2)) in
  Alcotest.(check bool) "weight 0.1" true
    (Float.abs ((float_of_int counts.(0) /. total) -. 0.1) < 0.02);
  Alcotest.(check bool) "weight 0.7" true
    (Float.abs ((float_of_int counts.(2) /. total) -. 0.7) < 0.02)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 13 in
  for _ = 1 to 50 do
    let count = 1 + Rng.int rng 20 in
    let bound = count + Rng.int rng 50 in
    let sample = Rng.sample_without_replacement rng count bound in
    Alcotest.(check int) "size" count (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    for i = 0 to count - 2 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i + 1))
    done;
    Array.iter
      (fun v -> Alcotest.(check bool) "in bound" true (v >= 0 && v < bound))
      sample
  done

let test_rng_dirichlet () =
  let rng = Rng.create 17 in
  for _ = 1 to 30 do
    let v = Rng.dirichlet rng ~alpha:0.5 6 in
    check_float ~eps:1e-9 "sums to one" 1.0 (Array.fold_left ( +. ) 0.0 v);
    Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.0)) v
  done

let test_rng_weighted_index_zero_tail () =
  (* Regression: a target at or past the accumulated sum (float
     roundoff at the boundary) used to fall through to index n-1 even
     when w.(n-1) = 0.0; the clamp must land on the last strictly
     positive weight instead. *)
  let w = [| 0.2; 0.8; 0.0; 0.0 |] in
  Alcotest.(check int) "boundary clamps past zero tail" 1
    (Rng.weighted_index w 1.0);
  Alcotest.(check int) "past-total target clamps too" 1
    (Rng.weighted_index w 1.5);
  Alcotest.(check int) "interior draws unchanged" 0 (Rng.weighted_index w 0.1);
  Alcotest.(check int) "interior draws unchanged (2)" 1
    (Rng.weighted_index w 0.5);
  (* A positive final weight still wins the boundary case. *)
  Alcotest.(check int) "positive tail keeps n-1" 2
    (Rng.weighted_index [| 0.5; 0.5; 1.0 |] 2.0)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 23 in
  let arr = Array.init 30 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 30 (fun i -> i)) sorted

(* --------------------------- Stats -------------------------------- *)

let test_stats_basic () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||]);
  check_float "variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "median" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "q0" 1.0 (Stats.quantile [| 3.0; 1.0; 2.0 |] 0.0);
  check_float "q1" 3.0 (Stats.quantile [| 3.0; 1.0; 2.0 |] 1.0);
  check_float "q.5" 2.0 (Stats.quantile [| 3.0; 1.0; 2.0 |] 0.5)

let test_stats_cdf () =
  let xs = [| 1.0; 2.0; 2.0; 4.0 |] in
  let out = Stats.cdf xs ~points:[| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (array (float 1e-9)))
    "cdf values"
    [| 0.0; 0.25; 0.75; 0.75; 1.0 |]
    out

let test_stats_histogram () =
  let counts = Stats.histogram [| 0.1; 0.2; 0.55; 0.99; -1.0; 2.0 |] ~lo:0.0 ~hi:1.0 ~bins:2 in
  Alcotest.(check (array int)) "bins" [| 3; 3 |] counts

let test_stats_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "perfect" 1.0 (Stats.pearson xs [| 2.0; 4.0; 6.0; 8.0 |]);
  check_float "anti" (-1.0) (Stats.pearson xs [| 8.0; 6.0; 4.0; 2.0 |]);
  check_float "constant" 0.0 (Stats.pearson xs [| 5.0; 5.0; 5.0; 5.0 |])

let test_stats_ranks_and_spearman () =
  let r = Stats.ranks [| 10.0; 30.0; 20.0; 30.0 |] in
  Alcotest.(check (array (float 1e-9))) "ranks with ties" [| 1.0; 3.5; 2.0; 3.5 |] r;
  (* Spearman is invariant under monotone transforms. *)
  let xs = [| 0.3; 1.7; 0.9; 5.5; 2.2 |] in
  let ys = Array.map (fun x -> exp x) xs in
  check_float "monotone transform" 1.0 (Stats.spearman xs ys)

let test_stats_t_test () =
  let p_strong = Stats.t_test_correlation ~r:0.9 ~n:44 in
  let p_weak = Stats.t_test_correlation ~r:0.05 ~n:10 in
  Alcotest.(check bool) "strong correlation significant" true (p_strong < 0.001);
  Alcotest.(check bool) "weak correlation insignificant" true (p_weak > 0.5)

(* --------------------------- Heap --------------------------------- *)

let test_heap_sorted_drain () =
  let rng = Rng.create 31 in
  let h = Heap.create () in
  for _ = 1 to 200 do
    Heap.push h (Rng.uniform rng) ()
  done;
  let keys = List.map fst (Heap.to_sorted_list h) in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "drained decreasing" true (decreasing keys);
  Alcotest.(check int) "drained all" 200 (List.length keys);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h 1.0 "a";
  Heap.push h 3.0 "b";
  Heap.push h 2.0 "c";
  Alcotest.(check (option (pair (float 1e-9) string))) "peek max" (Some (3.0, "b")) (Heap.peek h);
  Alcotest.(check (option (pair (float 1e-9) string))) "pop max" (Some (3.0, "b")) (Heap.pop h);
  Alcotest.(check int) "length" 2 (Heap.length h)

(* ------------------------- Union-find ----------------------------- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union redundant" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check bool) "same component" true (Union_find.same uf 1 2);
  Alcotest.(check bool) "different component" false (Union_find.same uf 0 4);
  Alcotest.(check int) "sets after unions" 3 (Union_find.count uf);
  let sizes =
    Array.to_list (Union_find.groups uf)
    |> List.map List.length |> List.filter (( <> ) 0) |> List.sort compare
  in
  Alcotest.(check (list int)) "group sizes" [ 1; 1; 4 ] sizes

(* --------------------------- Select ------------------------------- *)

let test_select_top_k () =
  let scores = [| 0.5; 0.9; 0.1; 0.9; 0.7 |] in
  Alcotest.(check (array int)) "top 3 with tie by index" [| 1; 3; 4 |] (Select.top_k 3 scores);
  Alcotest.(check (array int)) "k too big" [| 1; 3; 4; 0; 2 |] (Select.top_k 10 scores)

let test_select_argmax_argmin () =
  Alcotest.(check int) "argmax" 2 (Select.argmax [| 1.0; 2.0; 5.0; 3.0 |]);
  Alcotest.(check int) "argmin" 0 (Select.argmin [| 1.0; 2.0; 5.0; 3.0 |]);
  Alcotest.check_raises "argmax empty" (Invalid_argument "Select.argmax: empty array")
    (fun () -> ignore (Select.argmax [||]))

let test_select_normalize () =
  let out = Select.normalize [| 1.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "normalized" [| 0.25; 0.75 |] out;
  let zero = Select.normalize [| 0.0; 0.0 |] in
  Alcotest.(check (array (float 1e-9))) "uniform fallback" [| 0.5; 0.5 |] zero

let test_select_float_range () =
  Alcotest.(check (array (float 1e-9)))
    "range" [| 0.0; 0.5; 1.0 |]
    (Select.float_range 0.0 1.0 3)

(* --------------------------- Fenwick ------------------------------ *)

let test_fenwick_prefix_sums () =
  let arr = [| 1.0; 0.0; 2.5; 0.5; 3.0 |] in
  let t = Fenwick.of_array arr in
  Alcotest.(check int) "length" 5 (Fenwick.length t);
  for i = 0 to 5 do
    let expected = ref 0.0 in
    for j = 0 to i - 1 do
      expected := !expected +. arr.(j)
    done;
    check_float (Printf.sprintf "prefix %d" i) !expected (Fenwick.prefix t i)
  done;
  check_float "total" 7.0 (Fenwick.total t);
  Array.iteri (fun i v -> check_float "get" v (Fenwick.get t i)) arr

let test_fenwick_updates () =
  let t = Fenwick.create 6 in
  check_float "empty total" 0.0 (Fenwick.total t);
  Fenwick.set t 2 4.0;
  Fenwick.add t 5 1.5;
  Fenwick.add t 2 (-3.0);
  check_float "get after set+add" 1.0 (Fenwick.get t 2);
  check_float "total tracks updates" 2.5 (Fenwick.total t);
  Fenwick.refill t (fun i -> float_of_int i);
  check_float "refill total" 15.0 (Fenwick.total t);
  check_float "refill prefix" 6.0 (Fenwick.prefix t 4)

let test_fenwick_find_matches_scan () =
  let w = [| 2.0; 0.0; 1.0; 0.0; 5.0; 0.0 |] in
  let t = Fenwick.of_array w in
  List.iter
    (fun target ->
      Alcotest.(check int)
        (Printf.sprintf "find %.2f" target)
        (Rng.weighted_index w target) (Fenwick.find t target))
    [ 0.0; 1.99; 2.0; 2.5; 2.99; 3.0; 7.5; 7.99; 8.0; 9.0 ]

(* ---------------------------- Pool -------------------------------- *)

let test_pool_map_matches_serial () =
  let n = 257 in
  let expected = Array.init n (fun i -> i * i) in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "map with %d domains" domains)
        expected
        (Pool.parallel_map ~domains n (fun i -> i * i)))
    [ 1; 2; 4; 7 ]

let test_pool_for_covers_range () =
  let n = 100 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~domains:4 n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each index exactly once" (Array.make n 1) hits

let test_pool_local_scratch_private () =
  (* Each worker gets its own scratch; counts per scratch must sum to
     n without interference. *)
  let n = 64 in
  let out =
    Pool.parallel_map_local ~domains:4 n
      ~local:(fun () -> ref 0)
      (fun counter i ->
        incr counter;
        (i, !counter))
  in
  Alcotest.(check int) "all results present" n (Array.length out);
  Array.iteri (fun i (idx, count) ->
      Alcotest.(check int) "index order preserved" i idx;
      Alcotest.(check bool) "scratch counts positive" true (count >= 1))
    out

let test_pool_for_local_scratch () =
  (* parallel_for_local: every index is visited exactly once and each
     worker's private scratch is reused within its block; results are
     identical for every worker count. *)
  let run domains =
    let n = 96 in
    let out = Array.make n 0 in
    Pool.parallel_for_local ~domains n
      ~local:(fun () -> Array.make 4 0)
      (fun scratch i ->
        scratch.(i mod 4) <- scratch.(i mod 4) + 1;
        out.(i) <- (2 * i) + 1);
    out
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "identical for %d workers" domains)
        serial (run domains))
    [ 2; 5 ]

let test_pool_propagates_exceptions () =
  (* Multi-worker fan-outs wrap the original exception with the
     failing worker's identity and index range. Index 7 lives in the
     last of three blocks over [0, 9). *)
  (match
     Pool.parallel_for ~domains:3 9 (fun i -> if i = 7 then raise Exit)
   with
  | () -> Alcotest.fail "expected Worker_failure"
  | exception Pool.Worker_failure { worker; index_range = lo, hi; exn; _ } ->
      Alcotest.(check int) "failing worker" 2 worker;
      Alcotest.(check bool) "range holds the failing index" true
        (lo <= 7 && 7 < hi);
      Alcotest.(check bool) "original exception preserved" true (exn = Exit));
  (* The serial fallback has no worker to attribute the failure to and
     re-raises the original exception unwrapped. *)
  Alcotest.check_raises "serial fallback re-raises unwrapped" Exit (fun () ->
      Pool.parallel_for ~domains:1 9 (fun i -> if i = 7 then raise Exit))

(* Which domain ran each of [workers] one-index blocks. *)
let block_domains workers =
  Pool.parallel_map ~domains:workers workers (fun _ ->
      (Domain.self () :> int))

let test_pool_workers_persist () =
  (* Blocks other than block 0 run on resident workers, so two
     consecutive fan-outs see the same domains there. *)
  let first = block_domains 3 and second = block_domains 3 in
  let self = (Domain.self () :> int) in
  Alcotest.(check int) "block 0 runs on the caller" self first.(0);
  Alcotest.(check (array int)) "same worker domains" first second;
  Array.iteri
    (fun i d ->
      if i > 0 && d = self then Alcotest.fail "a worker block ran on the caller")
    first

let test_pool_nested_fanout () =
  (* A fan-out inside a block finds the workers held and spawns its
     own domains; it must terminate and equal the serial result. *)
  let run domains =
    Pool.parallel_map ~domains 4 (fun i ->
        Array.fold_left ( + ) 0
          (Pool.parallel_map ~domains 8 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested = serial" (run 1) (run 2)

let test_pool_concurrent_callers () =
  (* Two domains fan out at the same time: one holds the resident
     workers, the other falls back to spawned domains. *)
  let expected = Array.init 100 (fun i -> i * i) in
  let caller () =
    let ok = ref true in
    for _ = 1 to 50 do
      if Pool.parallel_map ~domains:2 100 (fun i -> i * i) <> expected then
        ok := false
    done;
    !ok
  in
  let callers = Array.init 2 (fun _ -> Domain.spawn caller) in
  Array.iteri
    (fun c d ->
      Alcotest.(check bool)
        (Printf.sprintf "caller %d: all results correct" c)
        true (Domain.join d))
    callers

let test_pool_recovers_after_failure () =
  (match Pool.parallel_for ~domains:2 2 (fun i -> if i = 1 then raise Exit) with
  | () -> Alcotest.fail "expected Worker_failure"
  | exception Pool.Worker_failure { worker; exn; _ } ->
      Alcotest.(check int) "failing worker" 1 worker;
      Alcotest.(check bool) "original exception preserved" true (exn = Exit));
  Alcotest.(check (array int))
    "next fan-out is correct"
    (Array.init 40 (fun i -> i + 1))
    (Pool.parallel_map ~domains:2 40 (fun i -> i + 1))

let test_pool_waits_for_every_block () =
  (* Block 0 fails at once while block 1 is still running: the call
     must not raise before block 1 has finished. *)
  let finished = Atomic.make false in
  (match
     Pool.parallel_for ~domains:2 2 (fun i ->
         if i = 0 then raise Exit
         else begin
           Unix.sleepf 0.02;
           Atomic.set finished true
         end)
   with
  | () -> Alcotest.fail "expected Worker_failure"
  | exception Pool.Worker_failure { worker = 0; _ } -> ()
  | exception e -> raise e);
  Alcotest.(check bool) "block 1 finished before the raise" true
    (Atomic.get finished)

let test_pool_shutdown_restarts () =
  let before = block_domains 2 in
  let squares = Pool.parallel_map ~domains:2 64 (fun i -> i * i) in
  Pool.shutdown ();
  let after = block_domains 2 in
  Alcotest.(check bool) "a fresh worker after shutdown" true
    (before.(1) <> after.(1));
  Alcotest.(check (array int))
    "same results after restart" squares
    (Pool.parallel_map ~domains:2 64 (fun i -> i * i))

(* ------------------------ qcheck properties ----------------------- *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"top_k agrees with full sort"
      (pair (int_range 0 20) (array_of_size Gen.(int_range 1 40) (float_range 0.0 100.0)))
      (fun (k, scores) ->
        let top = Select.top_k k scores in
        let sorted =
          Array.init (Array.length scores) (fun i -> i)
          |> Array.to_list
          |> List.sort (fun a b ->
                 let c = compare scores.(b) scores.(a) in
                 if c <> 0 then c else compare a b)
        in
        let expected =
          Array.of_list (List.filteri (fun i _ -> i < k) sorted)
        in
        top = expected);
    Test.make ~name:"ranks sum to n(n+1)/2"
      (array_of_size Gen.(int_range 1 50) (float_range (-10.0) 10.0))
      (fun xs ->
        let n = Array.length xs in
        feq ~eps:1e-6
          (Array.fold_left ( +. ) 0.0 (Stats.ranks xs))
          (float_of_int (n * (n + 1)) /. 2.0));
    Test.make ~name:"pearson bounded by 1"
      (pair
         (array_of_size Gen.(int_range 2 30) (float_range (-5.0) 5.0))
         (array_of_size Gen.(int_range 2 30) (float_range (-5.0) 5.0)))
      (fun (xs, ys) ->
        let n = min (Array.length xs) (Array.length ys) in
        let xs = Array.sub xs 0 n and ys = Array.sub ys 0 n in
        Float.abs (Stats.pearson xs ys) <= 1.0 +. 1e-9);
    Test.make ~name:"quantile between min and max"
      (pair (array_of_size Gen.(int_range 1 30) (float_range 0.0 10.0)) (float_range 0.0 1.0))
      (fun (xs, q) ->
        let v = Stats.quantile xs q in
        let lo = Array.fold_left Float.min infinity xs in
        let hi = Array.fold_left Float.max neg_infinity xs in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"fenwick sampling matches the naive scan draw-for-draw"
      (triple (int_range 0 10_000)
         (array_of_size Gen.(int_range 1 60) (int_range 0 8))
         (array_of_size Gen.(int_range 1 20) (pair (int_range 0 59) (int_range 0 8))))
      (fun (seed, iw, updates) ->
        (* Integer-valued weights keep every partial sum exact in both
           the linear scan and the tree, so the two samplers must agree
           on the whole index sequence, not just in distribution. *)
        let w = Array.map float_of_int iw in
        assume (Array.exists (fun v -> v > 0.0) w);
        let naive_rng = Rng.create seed and fen_rng = Rng.create seed in
        let t = Fenwick.of_array w in
        let ok = ref true in
        for _ = 1 to 30 do
          if !ok && Array.exists (fun v -> v > 0.0) w then
            if Rng.pick_weighted naive_rng w <> Fenwick.sample fen_rng t then
              ok := false
        done;
        (* Point updates must preserve the agreement. *)
        Array.iter
          (fun (i, v) ->
            let i = i mod Array.length w in
            w.(i) <- float_of_int v;
            Fenwick.set t i w.(i))
          updates;
        if !ok && Array.exists (fun v -> v > 0.0) w then
          for _ = 1 to 30 do
            if !ok then
              if Rng.pick_weighted naive_rng w <> Fenwick.sample fen_rng t then
                ok := false
          done;
        !ok);
    Test.make ~name:"fenwick find agrees with weighted_index on exact sums"
      (pair
         (array_of_size Gen.(int_range 1 50) (int_range 0 6))
         (int_range 0 400))
      (fun (iw, itarget) ->
        let w = Array.map float_of_int iw in
        assume (Array.exists (fun v -> v > 0.0) w);
        let t = Fenwick.of_array w in
        let target = float_of_int itarget /. 2.0 in
        Rng.weighted_index w target = Fenwick.find t target);
    Test.make ~name:"pool map equals serial map for any worker count"
      (pair (int_range 1 8) (int_range 0 200))
      (fun (domains, n) ->
        Pool.parallel_map ~domains n (fun i -> (3 * i) + 1)
        = Array.init n (fun i -> (3 * i) + 1));
    Test.make ~name:"heap drain is a decreasing permutation"
      (array_of_size Gen.(int_range 0 60) (float_range 0.0 1.0))
      (fun keys ->
        let h = Heap.create () in
        Array.iter (fun key -> Heap.push h key ()) keys;
        let drained = List.map fst (Heap.to_sorted_list h) in
        let sorted = List.sort (fun a b -> compare b a) (Array.to_list keys) in
        drained = sorted);
  ]

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng split_n deterministic" `Quick test_rng_split_n_deterministic;
    Alcotest.test_case "rng split_n independent" `Quick test_rng_split_n_independent;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng bernoulli bias" `Quick test_rng_bernoulli_bias;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng weighted pick" `Quick test_rng_pick_weighted;
    Alcotest.test_case "rng sampling w/o replacement" `Quick test_rng_sample_without_replacement;
    Alcotest.test_case "rng dirichlet" `Quick test_rng_dirichlet;
    Alcotest.test_case "rng weighted-index zero tail" `Quick test_rng_weighted_index_zero_tail;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "fenwick prefix sums" `Quick test_fenwick_prefix_sums;
    Alcotest.test_case "fenwick updates" `Quick test_fenwick_updates;
    Alcotest.test_case "fenwick find vs scan" `Quick test_fenwick_find_matches_scan;
    Alcotest.test_case "pool map matches serial" `Quick test_pool_map_matches_serial;
    Alcotest.test_case "pool for covers range" `Quick test_pool_for_covers_range;
    Alcotest.test_case "pool local scratch" `Quick test_pool_local_scratch_private;
    Alcotest.test_case "pool for-local scratch" `Quick test_pool_for_local_scratch;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_propagates_exceptions;
    Alcotest.test_case "pool workers persist" `Quick test_pool_workers_persist;
    Alcotest.test_case "pool nested fan-out" `Quick test_pool_nested_fanout;
    Alcotest.test_case "pool concurrent callers" `Quick test_pool_concurrent_callers;
    Alcotest.test_case "pool usable after failure" `Quick
      test_pool_recovers_after_failure;
    Alcotest.test_case "pool waits for every block" `Quick
      test_pool_waits_for_every_block;
    Alcotest.test_case "pool shutdown restarts" `Quick test_pool_shutdown_restarts;
    Alcotest.test_case "stats basics" `Quick test_stats_basic;
    Alcotest.test_case "stats cdf" `Quick test_stats_cdf;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "stats pearson" `Quick test_stats_pearson;
    Alcotest.test_case "stats ranks/spearman" `Quick test_stats_ranks_and_spearman;
    Alcotest.test_case "stats t-test" `Quick test_stats_t_test;
    Alcotest.test_case "heap drain" `Quick test_heap_sorted_drain;
    Alcotest.test_case "heap peek/pop" `Quick test_heap_peek_pop;
    Alcotest.test_case "union-find" `Quick test_union_find;
    Alcotest.test_case "select top-k" `Quick test_select_top_k;
    Alcotest.test_case "select argmax/argmin" `Quick test_select_argmax_argmin;
    Alcotest.test_case "select normalize" `Quick test_select_normalize;
    Alcotest.test_case "select float_range" `Quick test_select_float_range;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
