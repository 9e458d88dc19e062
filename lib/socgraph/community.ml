module Rng = Svgic_util.Rng
module Union_find = Svgic_util.Union_find

let compact_labels labels =
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  Array.map
    (fun l ->
      match Hashtbl.find_opt mapping l with
      | Some c -> c
      | None ->
          let c = !next in
          Hashtbl.replace mapping l c;
          incr next;
          c)
    labels

let groups_of_labels labels =
  let labels = compact_labels labels in
  let count = Array.fold_left (fun acc l -> max acc (l + 1)) 0 labels in
  let buckets = Array.make count [] in
  Array.iteri (fun v l -> buckets.(l) <- v :: buckets.(l)) labels;
  Array.map (fun l -> Array.of_list (List.sort compare l)) buckets

let modularity g labels =
  let m2 = float_of_int (2 * Graph.num_pairs g) in
  if m2 = 0.0 then 0.0
  else begin
    let size = Graph.n g in
    let q = ref 0.0 in
    (* Q = sum_c [ e_c / m - (d_c / 2m)^2 ] over undirected pairs. *)
    let count = Array.fold_left (fun acc l -> max acc (l + 1)) 0 labels in
    let internal = Array.make count 0.0 in
    let degree_sum = Array.make count 0.0 in
    Graph.iteri_pairs g (fun _ u v ->
        if labels.(u) = labels.(v) then
          internal.(labels.(u)) <- internal.(labels.(u)) +. 1.0);
    for v = 0 to size - 1 do
      degree_sum.(labels.(v)) <-
        degree_sum.(labels.(v)) +. float_of_int (Graph.degree_undirected g v)
    done;
    for c = 0 to count - 1 do
      q :=
        !q
        +. (internal.(c) /. (m2 /. 2.0))
        -. ((degree_sum.(c) /. m2) ** 2.0)
    done;
    !q
  end

(* ---------------- greedy modularity (CNM) ------------------------- *)

(* Merge candidates in a binary max-heap over parallel int arrays:
   [gain] (larger first), then [record] (smaller first), plus the stamp
   the record held when the entry was pushed. An entry whose stamp no
   longer matches its record's is stale and is skipped on pop. *)
type heap = {
  mutable gain : int array;
  mutable record : int array;
  mutable stamp : int array;
  mutable size : int;
}

let above h i j =
  h.gain.(i) > h.gain.(j) || (h.gain.(i) = h.gain.(j) && h.record.(i) < h.record.(j))

let swap_in a i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let swap h i j =
  swap_in h.gain i j;
  swap_in h.record i j;
  swap_in h.stamp i j

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if above h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let c = if l + 1 < h.size && above h (l + 1) l then l + 1 else l in
    if above h c i then begin
      swap h c i;
      sift_down h c
    end
  end

let push h gain record stamp =
  if h.size = Array.length h.gain then begin
    let grow a =
      let b = Array.make (max 16 (2 * h.size)) 0 in
      Array.blit a 0 b 0 h.size;
      b
    in
    h.gain <- grow h.gain;
    h.record <- grow h.record;
    h.stamp <- grow h.stamp
  end;
  let k = h.size in
  h.gain.(k) <- gain;
  h.record.(k) <- record;
  h.stamp.(k) <- stamp;
  h.size <- k + 1;
  sift_up h k

let pop h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    swap h 0 h.size;
    sift_down h 0
  end

(* Keeps the entries satisfying [live] and restores heap order (Floyd's
   bottom-up build): O(size). *)
let retain h live =
  let w = ref 0 in
  for i = 0 to h.size - 1 do
    if live h.record.(i) h.stamp.(i) then begin
      h.gain.(!w) <- h.gain.(i);
      h.record.(!w) <- h.record.(i);
      h.stamp.(!w) <- h.stamp.(i);
      incr w
    end
  done;
  h.size <- !w;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done

let greedy_modularity g =
  let n = Graph.n g and p = Graph.num_pairs g in
  let members = Union_find.create n in
  let two_p = 2 * p in
  (* Summed undirected degree per community. A community is named by
     one of its members: the survivor of every merge that formed it. *)
  let deg = Array.init n (Graph.degree_undirected g) in
  (* Record [r] starts as friend pair [r]. While alive ([joins.(r) > 0])
     it stands for one adjacent community pair: its two communities
     [ra]/[rb] and the number of friend pairs [joins] between them.
     When two records come to join the same two communities they fold
     into the one with the smaller index, so a live record's index is
     the smallest pair index joining its communities: the tie-break
     key, unique per live community pair. [stamp] is the stamp of its
     entry in the heap, or -1 when it has none. *)
  let ra = Array.init p (Graph.pair_u g) and rb = Array.init p (Graph.pair_v g) in
  let joins = Array.make p 1 and stamp = Array.make p (-1) in
  (* Records touching each community; dead records are dropped lazily,
     when the community next takes part in a merge. *)
  let adj = Array.map (fun d -> Array.make d 0) deg and len = Array.make n 0 in
  let append c r =
    adj.(c).(len.(c)) <- r;
    len.(c) <- len.(c) + 1
  in
  for r = 0 to p - 1 do
    append ra.(r) r;
    append rb.(r) r
  done;
  let heap = { gain = [||]; record = [||]; stamp = [||]; size = 0 } in
  let stamps = ref 0 and queued = ref 0 in
  (* Re-scores record [r] and replaces its heap entry. Only positive
     gains are queued: a record's gain changes only when one of its
     communities merges, and then it is re-scored again. *)
  let requeue r =
    if stamp.(r) >= 0 then decr queued;
    let gain = (two_p * joins.(r)) - (deg.(ra.(r)) * deg.(rb.(r))) in
    if gain > 0 then begin
      stamp.(r) <- !stamps;
      push heap gain r !stamps;
      incr stamps;
      incr queued
    end
    else stamp.(r) <- -1
  in
  let retire r =
    if stamp.(r) >= 0 then decr queued;
    stamp.(r) <- -1;
    joins.(r) <- 0
  in
  let other r c = if ra.(r) = c then rb.(r) else ra.(r) in
  (* [at.(c)]: slot in the survivor's record list of its record to
     community [c], while a merge runs; -1 otherwise. *)
  let at = Array.make n (-1) in
  let merge a b =
    ignore (Union_find.union members a b);
    let s, o = if len.(a) >= len.(b) then (a, b) else (b, a) in
    let live = ref 0 in
    for i = 0 to len.(s) - 1 do
      let r = adj.(s).(i) in
      if joins.(r) > 0 then begin
        adj.(s).(!live) <- r;
        at.(other r s) <- !live;
        incr live
      end
    done;
    len.(s) <- !live;
    if len.(s) + len.(o) > Array.length adj.(s) then begin
      let grown = Array.make (max (len.(s) + len.(o)) (2 * len.(s))) 0 in
      Array.blit adj.(s) 0 grown 0 len.(s);
      adj.(s) <- grown
    end;
    for i = 0 to len.(o) - 1 do
      let r = adj.(o).(i) in
      if joins.(r) > 0 then begin
        let c = other r o in
        if ra.(r) = o then ra.(r) <- s else rb.(r) <- s;
        let k = at.(c) in
        if k < 0 then begin
          at.(c) <- len.(s);
          append s r
        end
        else begin
          let q = adj.(s).(k) in
          let keep = min q r in
          joins.(keep) <- joins.(q) + joins.(r);
          retire (max q r);
          adj.(s).(k) <- keep
        end
      end
    done;
    adj.(o) <- [||];
    len.(o) <- 0;
    deg.(s) <- deg.(s) + deg.(o);
    for i = 0 to len.(s) - 1 do
      let r = adj.(s).(i) in
      at.(other r s) <- -1;
      requeue r
    done
  in
  for r = 0 to p - 1 do
    requeue r
  done;
  while heap.size > 0 do
    let r = heap.record.(0) and entry = heap.stamp.(0) in
    pop heap;
    if stamp.(r) = entry then begin
      retire r;
      merge ra.(r) rb.(r);
      (* Stale entries outnumber queued ones: rebuild, so the heap
         stays within about twice the queued community pairs. *)
      if heap.size > 2 * !queued then
        retain heap (fun r entry -> stamp.(r) = entry)
    end
  done;
  compact_labels (Array.init n (Union_find.find members))

let balanced_partition rng g ~parts =
  let size = Graph.n g in
  assert (parts >= 1 && parts <= size);
  let capacity = (size + parts - 1) / parts in
  let assignment = Array.make size (-1) in
  let fill = Array.make parts 0 in
  let order = Array.init size (fun i -> i) in
  Rng.shuffle rng order;
  (* Decreasing degree, with the shuffle as a deterministic-in-seed
     tie-break. *)
  Array.sort
    (fun a b ->
      compare (Graph.degree_undirected g b) (Graph.degree_undirected g a))
    order;
  Array.iter
    (fun v ->
      let friend_count = Array.make parts 0 in
      Graph.iter_und g v (fun u ->
          if assignment.(u) >= 0 then
            friend_count.(assignment.(u)) <- friend_count.(assignment.(u)) + 1);
      let best = ref (-1) in
      for p = 0 to parts - 1 do
        if
          fill.(p) < capacity
          && (!best < 0
             || friend_count.(p) > friend_count.(!best)
             || (friend_count.(p) = friend_count.(!best) && fill.(p) < fill.(!best)))
        then best := p
      done;
      assignment.(v) <- !best;
      fill.(!best) <- fill.(!best) + 1)
    order;
  assignment
