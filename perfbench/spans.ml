(* In-memory span recorder for the traced run.

   Every call the benchmark makes into a layer of the library can be
   wrapped in [span]: with recording off it is one flag test and the
   call itself; with recording on it takes two monotonic clock reads
   and appends one record (name, start, end, parent, run id, counts)
   to a growable in-memory table. Nothing is written until [write],
   after the measured phases are over.

   Spans nest through an explicit stack, so a span's parent is the
   innermost span open when it started. All spans are recorded on the
   calling domain: the benchmark only wraps public calls, and a
   fanned-out call ([Shard.solve_round], [Serve.tick]) is one span. *)

let now = Svgic_util.Mclock.now_s

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, [-1] for a root *)
  run : int;  (** pass the span belongs to *)
  mutable counts : (string * float) list;
}

let on = ref false
let table : span array ref = ref [||]
let len = ref 0
let stack : int list ref = ref []
let run_id = ref 0

let set_run r = run_id := r

let push s =
  if !len = Array.length !table then begin
    let grown = Array.make (max 64 (2 * !len)) s in
    Array.blit !table 0 grown 0 !len;
    table := grown
  end;
  !table.(!len) <- s;
  incr len;
  !len - 1

(* [span name ~counts f] runs [f ()] inside a span; [counts] maps the
   result to the counters recorded at the same boundary. *)
let span ?(counts = fun _ -> []) name f =
  if not !on then f ()
  else begin
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    let id =
      push
        { name; start = now (); stop = nan; parent; run = !run_id; counts = [] }
    in
    stack := id :: !stack;
    let finish () =
      !table.(id).stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
        finish ();
        !table.(id).counts <- counts v;
        v
    | exception e ->
        finish ();
        raise e
  end

let spans () = Array.sub !table 0 !len
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part of it its direct
   children cover. Children are sequential on the recording domain,
   so their intervals are disjoint and the covered part is their sum. *)
let self_times () =
  let all = spans () in
  let self = Array.map duration all in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
    all;
  self

(* Total self time per span name. *)
let self_by_name () =
  let all = spans () and self = self_times () in
  let h = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let prev = try Hashtbl.find h s.name with Not_found -> 0.0 in
      Hashtbl.replace h s.name (prev +. self.(i)))
    all;
  h

let self_of h name = try Hashtbl.find h name with Not_found -> 0.0

(* Durations (not self times) of every span with this name, in order. *)
let durations name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some (duration s) else None)
       (Array.to_list (spans ())))

let sum_count name key =
  Array.fold_left
    (fun acc s ->
      if s.name = name then
        match List.assoc_opt key s.counts with Some v -> acc +. v | None -> acc
      else acc)
    0.0 (spans ())

(* One JSON object per line, in start order. *)
let write path =
  let oc = open_out path in
  let self = self_times () in
  Array.iteri
    (fun i s ->
      let counts =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%S:%s" k (Report.json_number v))
             s.counts)
      in
      Printf.fprintf oc
        "{\"id\":%d,\"run\":%d,\"name\":%S,\"start\":%s,\"end\":%s,\
         \"parent\":%d,\"self\":%s,\"counts\":{%s}}\n"
        i s.run s.name (Report.json_number s.start) (Report.json_number s.stop) s.parent
        (Report.json_number self.(i)) counts)
    (spans ());
  close_out oc
