(* Chunked fork/join fan-out over OCaml 5 domains. Each call
   partitions [0, n) into contiguous chunks — one per worker for small
   ranges, a bounded multiple of the worker count for large ones (see
   [run_blocks]) — runs the first chunk on the calling domain and the
   others on [workers - 1] resident worker domains.

   The workers outlive the call. A fan-out starts the ones it lacks,
   and afterwards they block on a condition variable until the next
   fan-out posts them a block. On a 2-vCPU VM a [Domain.spawn] +
   [Domain.join] costs 0.1–4 ms, against 5–30 µs for a hand-off to a
   resident worker, and a resident worker keeps its minor heap and its
   [Domain.DLS] state (the exact LP workspace) from call to call. A
   fan-out long enough to make starting its workers negligible stops
   them afterwards ([keep_ratio]).

   One fan-out at a time holds the resident workers, through the
   atomic [holder] flag. A fan-out that finds them held — one nested
   inside a block, one from a signal handler, one from another domain
   — spawns and joins its own domains instead. A caller only waits on
   workers it posted to, so nesting cannot deadlock.

   Determinism contract: results are delivered by index ([parallel_map]
   fills slot [i] with [f i]) regardless of worker count or of which
   domain ran a block, so any by-index reduction is identical to the
   serial run. Callers must not rely on evaluation *order* across
   indices, and shared lazies must be forced before fanning out
   (Lazy.force is not domain-safe). *)

exception
  Worker_failure of {
    worker : int;
    index_range : int * int;
    exn : exn;
    backtrace : string;
  }

let () =
  Printexc.register_printer (function
    | Worker_failure { worker; index_range = lo, hi; exn; _ } ->
        Some
          (Printf.sprintf "Pool.Worker_failure(worker %d, range [%d,%d): %s)"
             worker lo hi (Printexc.to_string exn))
    | _ -> None)

let available_domains () = max 1 (Domain.recommended_domain_count ())

let resolve_workers ?domains n =
  let requested = match domains with Some d -> d | None -> available_domains () in
  (* Serial degradation: a single-core box (recommended count 1), an
     explicit [~domains:1], or a trivial range all bypass the workers. *)
  max 1 (min requested n)

(* Bounded chunking: below this many indices per worker the call keeps
   the one-block-per-worker static split (fixed worker -> index-range
   attribution, zero scheduling traffic); above it the range is cut
   into at most [chunk_cap_factor] chunks per worker, pulled off a
   shared counter so stragglers rebalance. Capping the chunk *count*
   rather than the chunk size keeps million-index sweeps from creating
   thousands of tiny tasks: chunks grow with n. *)
let min_chunk = 32
let chunk_cap_factor = 4

(* A failure that escaped a block's own handler (raised by a spawned
   domain's function, or around a resident worker's block); it carries
   no range. *)
let stray_failure e =
  Worker_failure
    {
      worker = -1;
      index_range = (0, 0);
      exn = e;
      backtrace = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ());
    }

(* ---------------- resident workers -------------------------------- *)

(* One resident worker's mailbox. [task] is the block posted to it and
   not yet taken; [pending] is true from the post until the block has
   finished and [result] holds its outcome. Every field is read and
   written under [lock], which also orders the block's writes (e.g.
   [parallel_map]'s slots) before the caller's reads, as
   [Domain.join] does. *)
type resident = {
  lock : Mutex.t;
  posted : Condition.t; (* a task or a stop request arrived *)
  finished : Condition.t; (* the posted task finished *)
  mutable task : (unit -> exn option) option;
  mutable pending : bool;
  mutable result : exn option;
  mutable stop : bool;
}

(* Taken by the fan-out (or [shutdown]) that uses [residents]; only
   the holder reads or writes [residents] and [start_s], the measured
   time [Domain.spawn] took to start them. *)
let holder = Atomic.make false
let residents : (resident * unit Domain.t) array ref = ref [||]
let start_s = ref 0.0

(* Idle workers tax every minor collection of the serial code that
   runs between fan-outs (pool.mli). After a fan-out that ran for more
   than [keep_ratio] times what starting its workers cost, starting
   them again is negligible next to the work they serve, so they are
   stopped; short fan-outs (a serving tick, AVG-D's initial candidate
   sweep) keep them. *)
let keep_ratio = 1000.0

(* A resident worker's loop. Idle workers block on [posted]: a
   spinning worker would take a CPU from the caller on a small host.
   A dead worker would leave its next caller waiting forever, so the
   block runs under a catch-all, and an exception a signal handler
   raises on this domain between blocks is dropped. *)
let rec serve r =
  match
    Mutex.protect r.lock (fun () ->
        while Option.is_none r.task && not r.stop do
          Condition.wait r.posted r.lock
        done;
        let task = r.task in
        r.task <- None;
        task)
  with
  | exception _ -> serve r
  | None -> ()
  | Some f ->
      let outcome = try f () with e -> Some (stray_failure e) in
      finish r outcome;
      serve r

and finish r outcome =
  match
    Mutex.protect r.lock (fun () ->
        r.result <- outcome;
        r.pending <- false;
        Condition.signal r.finished)
  with
  | () -> ()
  | exception _ -> finish r outcome

let post r f =
  Mutex.protect r.lock (fun () ->
      r.task <- Some f;
      r.pending <- true;
      Condition.signal r.posted)

(* Waits until [r]'s posted block has finished and takes its outcome.
   An exception a signal handler raises during the wait is kept in
   [interrupted] (the first one only) and the wait resumes: the caller
   must not return while the block still runs. *)
let rec await r interrupted =
  match
    Mutex.protect r.lock (fun () ->
        while r.pending do
          Condition.wait r.finished r.lock
        done;
        let outcome = r.result in
        r.result <- None;
        outcome)
  with
  | outcome -> outcome
  | exception e ->
      if Option.is_none !interrupted then
        interrupted := Some (e, Printexc.get_raw_backtrace ());
      await r interrupted

(* Starts resident workers until there are [count]. A failed spawn
   (e.g. the domain limit) raises; the workers already started stay. *)
let grow count =
  while Array.length !residents < count do
    let r =
      {
        lock = Mutex.create ();
        posted = Condition.create ();
        finished = Condition.create ();
        task = None;
        pending = false;
        result = None;
        stop = false;
      }
    in
    let t = Mclock.now_s () in
    let d = Domain.spawn (fun () -> serve r) in
    start_s := !start_s +. (Mclock.now_s () -. t);
    residents := Array.append !residents [| (r, d) |]
  done

(* Stops and joins the resident workers; the caller holds [holder]. *)
let stop_residents () =
  let pool = !residents in
  residents := [||];
  start_s := 0.0;
  Array.iter
    (fun (r, _) ->
      Mutex.protect r.lock (fun () ->
          r.stop <- true;
          Condition.signal r.posted))
    pool;
  Array.iter (fun (_, d) -> Domain.join d) pool

(* Runs block w on resident worker w - 1 and block 0 here; entered
   with [holder] taken. The flag is released only once every posted
   block has finished, on every exit path: a block of this call still
   running could otherwise hand its outcome to the next call's
   [await]. A failed worker start, or an exception a signal handler
   raises here, is re-raised after that. *)
let run_resident ~workers wrap =
  let t0 = Mclock.now_s () in
  let outcomes = Array.make workers None in
  let posted = ref 0 and interrupted = ref None in
  (match
     grow (workers - 1);
     for w = 1 to workers - 1 do
       posted := w;
       post (fst !residents.(w - 1)) (wrap w)
     done;
     outcomes.(0) <- wrap 0 ()
   with
  | () -> ()
  | exception e -> interrupted := Some (e, Printexc.get_raw_backtrace ()));
  for w = 1 to !posted do
    outcomes.(w) <- await (fst !residents.(w - 1)) interrupted
  done;
  (try
     if Mclock.now_s () -. t0 > keep_ratio *. !start_s then stop_residents ()
   with e ->
     if Option.is_none !interrupted then
       interrupted := Some (e, Printexc.get_raw_backtrace ()));
  Atomic.set holder false;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !interrupted;
  outcomes

(* The fallback when the resident workers are held: spawn
   [workers - 1] domains and join every one — even after a
   calling-domain failure — so none outlives the call. *)
let run_spawned ~workers wrap =
  let spawned =
    Array.init (workers - 1) (fun i -> Domain.spawn (wrap (i + 1)))
  in
  let first = wrap 0 () in
  Array.append [| first |]
    (Array.map
       (fun d ->
         match Domain.join d with
         | outcome -> outcome
         | exception e -> Some (stray_failure e))
       spawned)

let shutdown () =
  if Atomic.compare_and_set holder false true then
    Fun.protect ~finally:(fun () -> Atomic.set holder false) stop_residents

let () = at_exit shutdown

(* ---------------- fan-out ----------------------------------------- *)

(* Runs [body lo hi] over a partition of [0, n) split into [chunks]
   contiguous blocks; chunk c covers [c*n/chunks, (c+1)*n/chunks).
   With [chunks = workers] block w runs on worker w (the seed's static
   schedule); with more chunks than workers each worker pulls the next
   unclaimed chunk off an atomic counter. Either way every index is
   covered exactly once, so by-index reductions are schedule-blind. *)
let run_blocks ~workers n body =
  if n > 0 then begin
    if workers <= 1 then body 0 n
    else begin
      let chunks =
        if n < 2 * workers * min_chunk then workers
        else min (workers * chunk_cap_factor) (n / min_chunk)
      in
      let bound c = c * n / chunks in
      let next = Atomic.make workers in
      (* Every block failure — not just the first — is captured with
         its worker id, index range and backtrace; the first is
         re-raised as [Worker_failure] after every block has finished,
         the rest are counted so they are not silently dropped. *)
      let wrap w () =
        let current = ref (0, 0) in
        try
          (* Chunk w first (static schedule when chunks = workers),
             then any chunks left unclaimed. *)
          let c = ref w in
          while !c < chunks do
            let lo = bound !c and hi = bound (!c + 1) in
            current := (lo, hi);
            body lo hi;
            c := Atomic.fetch_and_add next 1
          done;
          None
        with e ->
          let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
          let lo, hi = !current in
          Some
            (Worker_failure
               { worker = w; index_range = (lo, hi); exn = e; backtrace = bt })
      in
      let outcomes =
        if Atomic.compare_and_set holder false true then
          run_resident ~workers wrap
        else run_spawned ~workers wrap
      in
      let first = ref None and others = ref 0 in
      Array.iter
        (function
          | None -> ()
          | Some f -> if Option.is_none !first then first := Some f else incr others)
        outcomes;
      match !first with
      | None -> ()
      | Some e ->
          if !others > 0 then
            Printf.eprintf
              "Pool.run_blocks: %d additional worker failure(s) joined and \
               suppressed\n\
               %!"
              !others;
          raise e
    end
  end

let parallel_for ?domains n f =
  let workers = resolve_workers ?domains n in
  run_blocks ~workers n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let parallel_for_local ?domains n ~local f =
  let workers = resolve_workers ?domains n in
  if workers <= 1 then begin
    if n > 0 then begin
      let l = local () in
      for i = 0 to n - 1 do
        f l i
      done
    end
  end
  else
    run_blocks ~workers n (fun lo hi ->
        let l = local () in
        for i = lo to hi - 1 do
          f l i
        done)

let parallel_map_local ?domains n ~local f =
  if n = 0 then [||]
  else begin
    let workers = resolve_workers ?domains n in
    if workers <= 1 then
      (* Serial fast path: no option staging, one scratch, one array. *)
      let l = local () in
      Array.init n (f l)
    else begin
      let out = Array.make n None in
      run_blocks ~workers n (fun lo hi ->
          let l = local () in
          for i = lo to hi - 1 do
            out.(i) <- Some (f l i)
          done);
      Array.map (function Some v -> v | None -> assert false) out
    end
  end

let parallel_map ?domains n f =
  parallel_map_local ?domains n ~local:(fun () -> ()) (fun () i -> f i)
