(* Int-packed CSR representation. One flat arena per adjacency view:

     out_off/out_dst   directed out-rows, each sorted by target
     edge_src          directed-edge index -> source vertex
     in_off/in_src     directed in-rows, each sorted by source
     und_off/und_dst   undirected rows, each sorted
     pr_u/pr_v         unordered friend pairs, lexicographic

   [out_dst] doubles as the *edge arena*: the directed edge with index
   [e] is (edge_src.(e), out_dst.(e)), and because rows are stored in
   vertex order with sorted targets, edge indices enumerate the edge
   set in lexicographic (u, v) order. Everything downstream that used
   to key off (u, v) tuples (τ tables, pair weights, shard remaps) can
   key off this dense index instead. *)

type t = {
  size : int;
  out_off : int array; (* length n+1 *)
  out_dst : int array; (* length num_edges; the edge arena *)
  edge_src : int array; (* length num_edges *)
  in_off : int array;
  in_src : int array;
  und_off : int array;
  und_dst : int array;
  pr_u : int array; (* length num_pairs *)
  pr_v : int array;
}

(* Sorted int array with the duplicates squeezed out in place (the
   write index never passes the read index). *)
let sort_dedup_ints arr =
  Array.sort (compare : int -> int -> int) arr;
  let len = Array.length arr in
  if len = 0 then arr
  else begin
    let w = ref 1 in
    for r = 1 to len - 1 do
      if arr.(r) <> arr.(!w - 1) then begin
        arr.(!w) <- arr.(r);
        incr w
      end
    done;
    if !w = len then arr else Array.sub arr 0 !w
  end

let of_edge_arrays ~n eu ev =
  let cand = Array.length eu in
  if Array.length ev <> cand then
    invalid_arg "Graph.of_edge_arrays: endpoint arrays differ in length";
  (* Edges are packed as u*n + v for a single flat sort; the product
     must stay inside the int range. n beyond ~2^31 would need a wider
     key, far past any instance this repository targets. *)
  if n > 0 && n > max_int / (n + 1) then
    invalid_arg "Graph.of_edge_arrays: n too large for packed edge keys";
  for i = 0 to cand - 1 do
    if eu.(i) < 0 || eu.(i) >= n || ev.(i) < 0 || ev.(i) >= n then
      invalid_arg "Graph.of_edge_arrays: endpoint out of range"
  done;
  let valid = ref 0 in
  for i = 0 to cand - 1 do
    if eu.(i) <> ev.(i) then incr valid
  done;
  let keys = Array.make !valid 0 in
  let w = ref 0 in
  for i = 0 to cand - 1 do
    if eu.(i) <> ev.(i) then begin
      keys.(!w) <- (eu.(i) * n) + ev.(i);
      incr w
    end
  done;
  let keys = sort_dedup_ints keys in
  let ne = Array.length keys in
  (* Out CSR straight off the sorted keys: they are already grouped by
     source (major key) with sorted targets inside each group. *)
  let out_off = Array.make (n + 1) 0 in
  let out_dst = Array.make ne 0 in
  let edge_src = Array.make ne 0 in
  for e = 0 to ne - 1 do
    let u = keys.(e) / n and v = keys.(e) mod n in
    out_off.(u + 1) <- out_off.(u + 1) + 1;
    out_dst.(e) <- v;
    edge_src.(e) <- u
  done;
  for u = 0 to n - 1 do
    out_off.(u + 1) <- out_off.(u + 1) + out_off.(u)
  done;
  (* In CSR by counting sort over the same pass order: sources arrive
     in increasing order for any fixed target, so rows come out
     sorted. *)
  let in_off = Array.make (n + 1) 0 in
  let in_src = Array.make ne 0 in
  for e = 0 to ne - 1 do
    in_off.(out_dst.(e) + 1) <- in_off.(out_dst.(e) + 1) + 1
  done;
  for v = 0 to n - 1 do
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  let in_fill = Array.make n 0 in
  for e = 0 to ne - 1 do
    let v = out_dst.(e) in
    in_src.(in_off.(v) + in_fill.(v)) <- edge_src.(e);
    in_fill.(v) <- in_fill.(v) + 1
  done;
  (* Unordered pairs: re-pack each edge with the smaller endpoint as
     the major key and dedup again. *)
  let pkeys =
    Array.map
      (fun key ->
        let u = key / n and v = key mod n in
        if u < v then key else (v * n) + u)
      keys
  in
  let pkeys = sort_dedup_ints pkeys in
  let np = Array.length pkeys in
  let pr_u = Array.make np 0 and pr_v = Array.make np 0 in
  for i = 0 to np - 1 do
    pr_u.(i) <- pkeys.(i) / n;
    pr_v.(i) <- pkeys.(i) mod n
  done;
  (* Undirected rows in two passes over the sorted pairs (a < b): the
     first appends each vertex's smaller neighbors (in order, a being
     the major key), the second its larger ones — so every row comes
     out sorted without a per-vertex sort. *)
  let und_off = Array.make (n + 1) 0 in
  for i = 0 to np - 1 do
    und_off.(pr_u.(i) + 1) <- und_off.(pr_u.(i) + 1) + 1;
    und_off.(pr_v.(i) + 1) <- und_off.(pr_v.(i) + 1) + 1
  done;
  for x = 0 to n - 1 do
    und_off.(x + 1) <- und_off.(x + 1) + und_off.(x)
  done;
  let und_dst = Array.make (2 * np) 0 in
  let und_fill = Array.make n 0 in
  for i = 0 to np - 1 do
    let b = pr_v.(i) in
    und_dst.(und_off.(b) + und_fill.(b)) <- pr_u.(i);
    und_fill.(b) <- und_fill.(b) + 1
  done;
  for i = 0 to np - 1 do
    let a = pr_u.(i) in
    und_dst.(und_off.(a) + und_fill.(a)) <- pr_v.(i);
    und_fill.(a) <- und_fill.(a) + 1
  done;
  { size = n; out_off; out_dst; edge_src; in_off; in_src; und_off; und_dst; pr_u; pr_v }

let of_edges ~n edge_list =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range")
    edge_list;
  let cand = List.length edge_list in
  let eu = Array.make cand 0 and ev = Array.make cand 0 in
  List.iteri
    (fun i (u, v) ->
      eu.(i) <- u;
      ev.(i) <- v)
    edge_list;
  of_edge_arrays ~n eu ev

let n g = g.size
let num_edges g = Array.length g.out_dst
let num_pairs g = Array.length g.pr_u
let out_degree g u = g.out_off.(u + 1) - g.out_off.(u)
let in_degree g u = g.in_off.(u + 1) - g.in_off.(u)
let degree_undirected g u = g.und_off.(u + 1) - g.und_off.(u)
let out_neighbors g u = Array.sub g.out_dst g.out_off.(u) (out_degree g u)
let in_neighbors g u = Array.sub g.in_src g.in_off.(u) (in_degree g u)

let neighbors_undirected g u =
  Array.sub g.und_dst g.und_off.(u) (degree_undirected g u)

let und_neighbor g u j = g.und_dst.(g.und_off.(u) + j)

(* Binary search for [v] inside [u]'s sorted out-row; returns the
   global edge index (= position in the edge arena) or -1. *)
let edge_index g u v =
  let lo = ref g.out_off.(u) and hi = ref g.out_off.(u + 1) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.out_dst.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

let has_edge g u v = edge_index g u v >= 0
let edge_u g e = g.edge_src.(e)
let edge_v g e = g.out_dst.(e)
let pair_u g i = g.pr_u.(i)
let pair_v g i = g.pr_v.(i)

let edges g =
  Array.init (num_edges g) (fun e -> (g.edge_src.(e), g.out_dst.(e)))

let pairs g = Array.init (num_pairs g) (fun i -> (g.pr_u.(i), g.pr_v.(i)))

let iteri_edges g f =
  for e = 0 to num_edges g - 1 do
    f e g.edge_src.(e) g.out_dst.(e)
  done

let iteri_pairs g f =
  for i = 0 to num_pairs g - 1 do
    f i g.pr_u.(i) g.pr_v.(i)
  done

let iter_out_edges g u f =
  for e = g.out_off.(u) to g.out_off.(u + 1) - 1 do
    f e g.out_dst.(e)
  done

let iter_in g u f =
  for i = g.in_off.(u) to g.in_off.(u + 1) - 1 do
    f g.in_src.(i)
  done

let iter_und g u f =
  for i = g.und_off.(u) to g.und_off.(u + 1) - 1 do
    f g.und_dst.(i)
  done

let mem_words g =
  let len = Array.length in
  len g.out_off + len g.out_dst + len g.edge_src + len g.in_off + len g.in_src
  + len g.und_off + len g.und_dst + len g.pr_u + len g.pr_v

let density g =
  if g.size < 2 then 0.0
  else
    let max_pairs = float_of_int (g.size * (g.size - 1)) /. 2.0 in
    float_of_int (num_pairs g) /. max_pairs

let induced_pair_count g vs =
  let inside = Hashtbl.create (Array.length vs) in
  Array.iter (fun v -> Hashtbl.replace inside v ()) vs;
  let acc = ref 0 in
  iteri_pairs g (fun _ u v ->
      if Hashtbl.mem inside u && Hashtbl.mem inside v then incr acc);
  !acc

let induced_density g vs =
  let sz = Array.length vs in
  if sz <= 1 then 1.0
  else
    let max_pairs = float_of_int (sz * (sz - 1)) /. 2.0 in
    float_of_int (induced_pair_count g vs) /. max_pairs

let ego g ~center ~hops =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist center 0;
  let queue = Queue.create () in
  Queue.push center queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let d = Hashtbl.find dist u in
    if d < hops then
      iter_und g u (fun v ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.replace dist v (d + 1);
            Queue.push v queue
          end)
  done;
  Hashtbl.fold (fun v _ acc -> v :: acc) dist []
  |> List.sort compare |> Array.of_list

(* Only the members' out-rows can hold induced edges, so the cost is
   their out-degree sum, not the whole graph's edge count. A repeated
   member keeps its last position (the index's binding); edges are
   emitted from that position only, and [of_edge_arrays] sorts and
   dedups, so the result matches a filter of the full edge list. *)
let subgraph g vs =
  let len = Array.length vs in
  Array.iter
    (fun v ->
      if v < 0 || v >= g.size then
        invalid_arg "Graph.subgraph: member out of range")
    vs;
  let mapping = Array.copy vs in
  let index = Hashtbl.create len in
  Array.iteri (fun i v -> Hashtbl.replace index v i) mapping;
  let cap = ref 0 in
  Array.iter (fun u -> cap := !cap + g.out_off.(u + 1) - g.out_off.(u)) vs;
  let eu = Array.make !cap 0 and ev = Array.make !cap 0 in
  let w = ref 0 in
  for i = 0 to len - 1 do
    let u = vs.(i) in
    if Hashtbl.find index u = i then
      for e = g.out_off.(u) to g.out_off.(u + 1) - 1 do
        match Hashtbl.find index g.out_dst.(e) with
        | j ->
            eu.(!w) <- i;
            ev.(!w) <- j;
            incr w
        | exception Not_found -> ()
      done
  done;
  (of_edge_arrays ~n:len (Array.sub eu 0 !w) (Array.sub ev 0 !w), mapping)

let connected_components g =
  let uf = Svgic_util.Union_find.create g.size in
  iteri_pairs g (fun _ u v -> ignore (Svgic_util.Union_find.union uf u v));
  let groups = Svgic_util.Union_find.groups uf in
  Array.of_list (List.filter (fun l -> l <> []) (Array.to_list groups))
