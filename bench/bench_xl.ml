(* pipeline_xl: the full sharded pipeline at timik-crawl scale
   (~1M users full, ~100k smoke) on the flat-arena representation.

   Run as its own `bench xl` invocation rather than inside `bench
   kernels`: VmHWM is monotone over a process lifetime, so the peak-RSS
   envelope (peak <= max(2·arena, arena + slack)) is only meaningful in
   a process that has run nothing else. The rows are merged into
   BENCH_kernels.json next to the kernel rows, and the process exits
   non-zero when the envelope is violated — CI runs the smoke scale as
   a hard memory-regression gate. *)

module Rng = Svgic_util.Rng
module Timer = Svgic_util.Timer
module Pool = Svgic_util.Pool
module Rss = Svgic_util.Rss
module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Instance = Svgic.Instance
module Shard = Svgic.Shard

let mib bytes = float_of_int bytes /. 1048576.0

(* Progress line per phase: where the high-water mark is being set.
   VmHWM only ever rises, so printing it at each boundary shows which
   phase pushed it there. *)
let trace_rss tag =
  match (Rss.current_rss_bytes (), Rss.peak_rss_bytes ()) with
  | Some cur, Some peak ->
      Printf.printf "  [rss] %-12s current %.1f MB, peak %.1f MB\n%!" tag
        (mib cur) (mib peak)
  | _ -> ()

(* Phase timer: one-shot wall clock + allocation, the same units as
   the kernel records (these phases run minutes at full scale; best-of
   rounds would be waste). *)
let phase f =
  let w0 = Bench_kernels.words_now () in
  let t = Timer.start () in
  let v = f () in
  (v, Timer.elapsed_s t *. 1e9, Bench_kernels.words_now () -. w0)

(* A row line of our own writer back to the fields [speedups] reads
   (the note is not needed). *)
let record_of_row l =
  Scanf.sscanf l
    " {\"kernel\": %S, \"variant\": %S, \"size\": %d, \"ns_per_op\": %f, \
     \"allocated_words_per_op\": %f%s@\n"
    (fun kernel variant size ns alloc rest ->
      let domains =
        try Scanf.sscanf rest ", \"domains\": %d" Option.some with _ -> None
      in
      Bench_kernels.mk ?domains ~alloc kernel variant size ns)

(* Splice records into BENCH_kernels.json, replacing any previous rows
   of the same kernels, and derive the speedups section again from the
   merged rows. The file is our own writer's line-per-row format; when
   it is absent (xl run before kernels) a fresh v3 file is written
   instead. *)
let merge_into_json ~path records =
  if not (Sys.file_exists path) then
    Bench_kernels.write_json ~path ~smoke:(Bench_kernels.smoke ()) records
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    let is_row l = String.length l > 5 && String.sub l 0 5 = "    {" in
    let keeps r l =
      not
        (List.exists
           (fun rec_ ->
             let tag =
               Printf.sprintf "\"kernel\": \"%s\"" rec_.Bench_kernels.kernel
             in
             let len = String.length l and tlen = String.length tag in
             let rec find i =
               i + tlen <= len && (String.sub l i tlen = tag || find (i + 1))
             in
             find 0)
           r)
    in
    (* Only lines inside the "kernels" array are candidate rows: the
       "speedups" array uses the same indentation, and splicing its
       entries into the kernels array would leave rows without a
       "variant" field (and an empty speedups array) behind. *)
    let rows, others =
      let in_kernels = ref false in
      let rows, others_rev =
        List.fold_left
          (fun (rows, others) l ->
            if l = "  \"kernels\": [" then begin
              in_kernels := true;
              (rows, l :: others)
            end
            else if !in_kernels && l = "  ]," then begin
              in_kernels := false;
              (rows, l :: others)
            end
            else if !in_kernels && is_row l then (l :: rows, others)
            else (rows, l :: others))
          ([], []) (List.rev !lines)
      in
      (List.rev rows, List.rev others_rev)
    in
    let kept = List.filter (keeps records) rows in
    (* Re-emit: structural lines up to the kernels array open, then all
       rows comma-normalized, then the remainder (speedups etc.). *)
    let buf = Buffer.create 4096 in
    let rec emit_head = function
      | [] -> []
      | l :: tl ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n';
          if l = "  \"kernels\": [" then tl else emit_head tl
    in
    let tail = emit_head others in
    let strip l =
      let l = String.trim l in
      let l = if String.length l > 0 && l.[String.length l - 1] = ',' then
          String.sub l 0 (String.length l - 1)
        else l
      in
      "    " ^ l
    in
    let new_rows =
      List.map
        (fun r ->
          let domains =
            match r.Bench_kernels.domains with
            | Some d -> Printf.sprintf ", \"domains\": %d" d
            | None -> ""
          in
          let note =
            match r.Bench_kernels.note with
            | Some s ->
                Printf.sprintf ", \"note\": \"%s\"" (Bench_kernels.json_escape s)
            | None -> ""
          in
          Printf.sprintf
            "    {\"kernel\": \"%s\", \"variant\": \"%s\", \"size\": %d, \
             \"ns_per_op\": %.1f, \"allocated_words_per_op\": %.1f%s%s}"
            (Bench_kernels.json_escape r.Bench_kernels.kernel)
            (Bench_kernels.json_escape r.Bench_kernels.variant)
            r.Bench_kernels.size r.Bench_kernels.ns_per_op
            r.Bench_kernels.allocated_words_per_op domains note)
        records
    in
    let all_rows = List.map strip kept @ new_rows in
    List.iteri
      (fun i l ->
        Buffer.add_string buf l;
        if i < List.length all_rows - 1 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n')
      all_rows;
    (* [tail] opens with the line closing the kernels array; the old
       speedups section after it is replaced *)
    List.iter
      (fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      (List.hd tail
       :: Bench_kernels.speedups_json
            (List.map (fun l -> record_of_row (String.trim l)) all_rows));
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc
  end

let run () =
  Bench_common.heading "xl" "million-user sharded pipeline (flat arenas)";
  let smoke = Bench_kernels.smoke () in
  let users = if smoke then 100_000 else 1_000_000 in
  let communities = if smoke then 100 else 1_000 in
  let m = 12 and k = 4 in
  (* Keep the GC from hoarding: the arenas are long-lived (hundreds of
     MB live) and the thousand shard solves churn small transients, so
     the default space_overhead would let the major heap balloon to
     ~2x live — past the RSS envelope all by itself. A tight overhead
     trades some GC time for a heap that tracks the live set. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 30 };
  let rng = Rng.create 9091 in
  let (graph, labels), gen_ns, gen_w =
    phase (fun () ->
        Generate.timik_like rng ~n:users ~communities ~attach:2
          ~cross_frac:0.02)
  in
  let inst, _, _ =
    phase (fun () ->
        let pref = Float.Array.init (users * m) (fun _ -> Rng.float rng 1.0) in
        let tau =
          Float.Array.init
            (Graph.num_edges graph * m)
            (fun _ -> Rng.float rng 0.5)
        in
        Instance.of_flat ~graph ~m ~k ~lambda:0.5 ~pref ~tau)
  in
  let arena = Instance.arena_bytes inst in
  Printf.printf "users %d, edges %d, arena %.1f MB\n%!" users
    (Instance.num_edges inst) (mib arena);
  trace_rss "generate";
  let part, part_ns, part_w =
    phase (fun () -> Shard.partition ~labelling:(Shard.Labels labels) inst)
  in
  Printf.printf "partition: %d shards, %d cut pairs (%.1f s)\n%!"
    (Array.length part.Shard.shards)
    (Array.length part.Shard.cut_pairs)
    (part_ns /. 1e9);
  (* Phase boundary: generation/partition garbage (edge staging
     arrays, label buckets) is dead now; compacting resets the heap to
     the live arenas before the solve churn sets the high-water mark.
     Untimed — it is bookkeeping between phases, not pipeline work. *)
  Gc.compact ();
  trace_rss "partition";
  let backend =
    Svgic.Relaxation.Frank_wolfe
      {
        iterations = 150;
        smoothing = 0.02;
        gap_tol = Some 0.1;
        domains = Some 1;
      }
  in
  let res, solve_ns, solve_w =
    phase (fun () ->
        Shard.solve_round ~backend
          ~rounding:(Shard.Avg { repeats = 1; advanced_sampling = true })
          (Rng.create 7) part)
  in
  let degraded_count =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 res.Shard.degraded
  in
  Printf.printf
    "solve_round: objective %.1f, bound %.1f, repair gain %.1f, %d degraded \
     (%.1f s)\n\
     %!"
    res.Shard.objective res.Shard.bound res.Shard.repair_gain degraded_count
    (solve_ns /. 1e9);
  trace_rss "solve_round";
  let peak = Rss.peak_rss_bytes () in
  (* 2×arena is the envelope at full scale, where the arenas dominate;
     at smoke scale fixed costs (runtime, code, pref generation
     high-water) are not arena-proportional, so the envelope has an
     absolute slack floor. *)
  let budget = max (2 * arena) (arena + (256 * 1048576)) in
  let rss_note, rss_ok =
    match peak with
    | Some p ->
        ( Printf.sprintf "peak RSS %.1f MB, arena %.1f MB, budget %.1f MB"
            (mib p) (mib arena) (mib budget),
          p <= budget )
    | None -> ("peak RSS unavailable (no procfs)", true)
  in
  Printf.printf "%s\n%!" rss_note;
  let mk = Bench_kernels.mk in
  let records =
    [
      mk ~alloc:gen_w
        ~note:(Printf.sprintf "%d edges" (Instance.num_edges inst))
        "pipeline_xl" "generate" users gen_ns;
      mk ~alloc:part_w
        ~note:
          (Printf.sprintf "%d shards, %d cut pairs, arena %.1f MB"
             (Array.length part.Shard.shards)
             (Array.length part.Shard.cut_pairs)
             (mib arena))
        "pipeline_xl" "partition" users part_ns;
      mk ~alloc:solve_w ~domains:(Pool.available_domains ())
        ~note:
          (Printf.sprintf
             "objective %.1f, bound %.1f, %d degraded; %s" res.Shard.objective
             res.Shard.bound degraded_count rss_note)
        "pipeline_xl" "solve_round" users solve_ns;
    ]
  in
  Bench_kernels.print_records records;
  let path = "BENCH_kernels.json" in
  merge_into_json ~path records;
  Printf.printf "merged pipeline_xl rows into %s\n" path;
  if not rss_ok then begin
    Printf.eprintf "FAIL: peak RSS exceeds the arena envelope (%s)\n" rss_note;
    exit 1
  end
