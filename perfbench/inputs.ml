(* Workload inputs, generated from the workload seed before anything is
   timed. The engine under test only ever receives the resulting
   instances and events; nothing here reads a clock. *)

module Rng = Svgic_util.Rng
module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Instance = Svgic.Instance
module Serve = Svgic.Serve

(* Uniform arenas over a generated graph: p ~ U(0,1), τ ~ U(0,0.5) —
   the shape the repo's own serve and XL benches use. *)
let arenas rng g ~m ~k ~lambda =
  let pref = Float.Array.init (Graph.n g * m) (fun _ -> Rng.float rng 1.0) in
  let tau =
    Float.Array.init (Graph.num_edges g * m) (fun _ -> Rng.float rng 0.5)
  in
  Instance.of_flat ~graph:g ~m ~k ~lambda ~pref ~tau

(* Each workload serves one fixed social graph, drawn from
   [graph_seed]; the workload seed draws the utilities on it (and,
   elsewhere, the traffic and the solver streams). With the shard
   structure the same under every seed, the spread between seeds
   measures the program and the machine rather than graph luck. *)

(* Timik-like community graph; the generator's labels come back with
   it so the caller can hand them to [Shard.Labels]. *)
let timik ~graph_seed rng ~n ~communities ~cross_frac ~m ~k =
  let g, labels =
    Generate.timik_like (Rng.create graph_seed) ~n ~communities ~attach:2
      ~cross_frac
  in
  (arenas rng g ~m ~k ~lambda:0.5, labels)

(* Planted communities whose labels are thrown away: the partitioner
   has to find them. *)
let planted ~graph_seed rng ~n ~communities ~p_in ~p_out ~m ~k =
  let g, _ =
    Generate.planted_partition (Rng.create graph_seed) ~n ~communities ~p_in
      ~p_out
  in
  arenas rng g ~m ~k ~lambda:0.5

(* ---------------- open-loop event schedules ----------------------- *)

type traffic = {
  rate : float;  (** offered events per second (Poisson arrivals) *)
  cadence : float;  (** seconds between scheduled ticks *)
  ticks : int;  (** scheduled ticks in the measured run *)
  hot_share : float;  (** communities in the hot pool *)
  structural_every : int;
      (** one join or leave every this many windows (0: none); joins
          and leaves alternate 3 : 2 *)
}

type window = {
  due : float array;  (** due time of each event, seconds from run start *)
  events : Serve.event array;  (** in due order *)
}

type schedule = {
  windows : window array;  (** window [j] is carried by tick [j] *)
  trailing : window;
      (** events due after the last tick: submitted but never ticked,
          as a crash would leave them *)
}

(* A set of ints with O(1) add, remove and uniform pick. *)
module Pool_set = struct
  type t = { mutable items : int array; mutable len : int; pos : (int, int) Hashtbl.t }

  let create () = { items = Array.make 64 0; len = 0; pos = Hashtbl.create 64 }
  let mem s x = Hashtbl.mem s.pos x

  let add s x =
    if not (mem s x) then begin
      if s.len = Array.length s.items then begin
        let grown = Array.make (2 * s.len) 0 in
        Array.blit s.items 0 grown 0 s.len;
        s.items <- grown
      end;
      s.items.(s.len) <- x;
      Hashtbl.replace s.pos x s.len;
      s.len <- s.len + 1
    end

  let remove s x =
    match Hashtbl.find_opt s.pos x with
    | None -> ()
    | Some i ->
        let last = s.items.(s.len - 1) in
        s.items.(i) <- last;
        Hashtbl.replace s.pos last i;
        Hashtbl.remove s.pos x;
        s.len <- s.len - 1

  let pick rng s = s.items.(Rng.int rng s.len)
end

(* Draws from [set] until [ok] holds (bounded), else [None]. *)
let pick_where rng set ok =
  let rec go tries =
    if tries = 0 || set.Pool_set.len = 0 then None
    else
      let x = Pool_set.pick rng set in
      if ok x then Some x else go (tries - 1)
  in
  go 64

(* The full schedule for [traffic.ticks] windows plus a trailing one.
   Deltas arrive as a Poisson process at [rate]; window [j] holds the
   events due in [j·cadence, (j+1)·cadence). Joins and leaves come at a
   fixed pace instead — one at a uniform time in every
   [structural_every]-th window — so every run has the same number of
   structural ticks, and a crash always leaves the same number of them
   in the WAL suffix. Targets are drawn so that
   no event is dropped by the engine: deltas and τ edges only name
   users alive at the start of their window and not leaving in it,
   joins befriend such users, and a join's external id is predicted
   from mint order (initial users are [0 .. n-1], joins count up). *)
let schedule rng inst ~labels traffic =
  let n = Instance.n inst and m = Instance.m inst in
  let communities = Array.fold_left max 0 labels + 1 in
  let hot_cut =
    max 1 (int_of_float (Float.round (traffic.hot_share *. float communities)))
  in
  let alive = Pool_set.create () and hot = Pool_set.create () in
  let comm = Hashtbl.create n in
  for u = 0 to n - 1 do
    Pool_set.add alive u;
    Hashtbl.replace comm u labels.(u);
    if labels.(u) < hot_cut then Pool_set.add hot u
  done;
  let edges = Graph.edges (Instance.graph inst) in
  let next_ext = ref n in
  let nwin = traffic.ticks + 1 in
  (* arrival times, bucketed by window *)
  let buckets = Array.make nwin [] in
  let t = ref (Rng.exponential rng ~rate:traffic.rate) in
  let horizon = float nwin *. traffic.cadence in
  while !t < horizon do
    let j = min (nwin - 1) (int_of_float (!t /. traffic.cadence)) in
    buckets.(j) <- !t :: buckets.(j);
    t := !t +. Rng.exponential rng ~rate:traffic.rate
  done;
  let structural = ref 0 in
  let window j =
    (* buckets hold arrivals newest first; rev_map restores due order *)
    let deltas =
      List.rev_map
        (fun t -> (t, if Rng.bernoulli rng 0.9 then `Pref else `Tau))
        buckets.(j)
    in
    let every = traffic.structural_every in
    let arrivals =
      if every > 0 && j mod every = every - 1 then begin
        let t = (float j +. Rng.uniform rng) *. traffic.cadence in
        let kind =
          if !structural mod 5 = 1 || !structural mod 5 = 3 then `Leave else `Join
        in
        incr structural;
        List.merge (fun (a, _) (b, _) -> compare a b) [ (t, kind) ] deltas
      end
      else deltas
    in
    let due = Array.of_list (List.map fst arrivals) in
    let q = Array.length due in
    (* kinds first, so structural targets are fixed before deltas *)
    let kind = Array.of_list (List.map snd arrivals) in
    let leaving = Hashtbl.create 4 in
    let stays x = not (Hashtbl.mem leaving x) in
    let events = Array.make q (Serve.Leave 0) in
    let joined = ref [] in
    Array.iteri
      (fun i -> function
        | `Leave -> (
            match pick_where rng alive stays with
            | Some x when alive.Pool_set.len > n / 2 ->
                Hashtbl.replace leaving x ();
                events.(i) <- Serve.Leave x
            | Some _ | None -> kind.(i) <- `Pref)
        | `Join | `Pref | `Tau -> ())
      kind;
    Array.iteri
      (fun i -> function
        | `Join -> (
            match pick_where rng alive stays with
            | None -> kind.(i) <- `Pref
            | Some f1 ->
                let c = Hashtbl.find comm f1 in
                let f2 =
                  match
                    pick_where rng alive (fun x ->
                        x <> f1 && stays x && Hashtbl.find comm x = c)
                  with
                  | Some f2 -> f2
                  | None -> (
                      match pick_where rng alive (fun x -> x <> f1 && stays x) with
                      | Some f2 -> f2
                      | None -> f1)
                in
                let friends = if f2 = f1 then [| f1 |] else [| f1; f2 |] in
                let tau_row _ = Array.init m (fun _ -> Rng.float rng 0.5) in
                let tau_out = Array.map tau_row friends in
                let tau_in = Array.map tau_row friends in
                let row tbl f c =
                  let rec find i = if friends.(i) = f then tbl.(i).(c) else find (i + 1) in
                  find 0
                in
                let pref = Array.init m (fun _ -> Rng.float rng 1.0) in
                events.(i) <-
                  Serve.Join
                    { pref; friends; tau_out = row tau_out; tau_in = row tau_in };
                joined := (!next_ext, c) :: !joined;
                incr next_ext)
        | `Leave | `Pref | `Tau -> ())
      kind;
    Array.iteri
      (fun i -> function
        | `Pref ->
            let user =
              match
                if Rng.bernoulli rng 0.9 then pick_where rng hot stays else None
              with
              | Some u -> u
              | None -> (
                  match pick_where rng alive stays with Some u -> u | None -> 0)
            in
            events.(i) <-
              Serve.Pref_delta { user; item = Rng.int rng m; value = Rng.uniform rng }
        | `Tau ->
            let rec edge tries =
              let u, v = Rng.pick rng edges in
              if tries = 0 || (Pool_set.mem alive u && Pool_set.mem alive v && stays u && stays v)
              then (u, v)
              else edge (tries - 1)
            in
            let u, v = edge 64 in
            events.(i) <-
              Serve.Tau_delta { u; v; item = Rng.int rng m; value = Rng.float rng 0.5 }
        | `Join | `Leave -> ())
      kind;
    Hashtbl.iter
      (fun x () ->
        Pool_set.remove alive x;
        Pool_set.remove hot x)
      leaving;
    List.iter
      (fun (x, c) ->
        Pool_set.add alive x;
        Hashtbl.replace comm x c)
      !joined;
    { due; events }
  in
  let windows = Array.init traffic.ticks window in
  let trailing = window traffic.ticks in
  { windows; trailing }

(* Text rendering of one event, in the trace format of [svgic serve]
   (joins list every friend's per-item τ rows in full). *)
let render m = function
  | Serve.Pref_delta { user; item; value } ->
      Printf.sprintf "pref %d %d %h" user item value
  | Serve.Tau_delta { u; v; item; value } ->
      Printf.sprintf "tau %d %d %d %h" u v item value
  | Serve.Leave x -> Printf.sprintf "leave %d" x
  | Serve.Join p ->
      let row f get = String.concat "," (List.init m (fun c -> Printf.sprintf "%h" (get f c))) in
      Printf.sprintf "join %s %s"
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") p.Svgic.Dynamic.pref)))
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun f -> Printf.sprintf "%d:%s:%s" f (row f p.tau_out) (row f p.tau_in))
                 p.friends)))

(* CRC-32 of one window's batch: equal digests mean equal batches. *)
let digest m w =
  Array.fold_left
    (fun acc (d, e) ->
      let line = Printf.sprintf "%h %s\n" d (render m e) in
      Svgic_util.Crc32.update_string acc line ~pos:0 ~len:(String.length line))
    0
    (Array.map2 (fun d e -> (d, e)) w.due w.events)
