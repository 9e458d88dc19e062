type 'a t = { mutable keys : float array; mutable vals : 'a array; mutable size : int }

let create () = { keys = [||]; vals = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h v =
  let cap = Array.length h.keys in
  if h.size >= cap then begin
    let ncap = max 8 (2 * cap) in
    let nkeys = Array.make ncap 0.0 in
    let nvals = Array.make ncap v in
    Array.blit h.keys 0 nkeys 0 h.size;
    Array.blit h.vals 0 nvals 0 h.size;
    h.keys <- nkeys;
    h.vals <- nvals
  end

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(parent) < h.keys.(i) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let largest = ref i in
  if left < h.size && h.keys.(left) > h.keys.(!largest) then largest := left;
  if right < h.size && h.keys.(right) > h.keys.(!largest) then largest := right;
  if !largest <> i then begin
    swap h i !largest;
    sift_down h !largest
  end

let push h key v =
  grow h v;
  h.keys.(h.size) <- key;
  h.vals.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some (h.keys.(0), h.vals.(0))

let pop h =
  if h.size = 0 then None
  else begin
    let top = (h.keys.(0), h.vals.(0)) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.keys.(0) <- h.keys.(h.size);
      h.vals.(0) <- h.vals.(h.size);
      sift_down h 0
    end;
    Some top
  end

let to_sorted_list h =
  let rec drain acc =
    match pop h with None -> List.rev acc | Some entry -> drain (entry :: acc)
  in
  drain []
