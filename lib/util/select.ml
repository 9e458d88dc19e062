let top_k k scores =
  let n = Array.length scores in
  let order = Array.init n (fun i -> i) in
  (* Stable-by-index decreasing order of scores. *)
  Array.sort
    (fun a b ->
      let c = compare scores.(b) scores.(a) in
      if c <> 0 then c else compare a b)
    order;
  Array.sub order 0 (min k n)

let argmax scores =
  let n = Array.length scores in
  if n = 0 then invalid_arg "Select.argmax: empty array";
  let best = ref 0 in
  for i = 1 to n - 1 do
    if scores.(i) > scores.(!best) then best := i
  done;
  !best

let argmin scores =
  let n = Array.length scores in
  if n = 0 then invalid_arg "Select.argmin: empty array";
  let best = ref 0 in
  for i = 1 to n - 1 do
    if scores.(i) < scores.(!best) then best := i
  done;
  !best

let sum = Array.fold_left ( +. ) 0.0

let normalize arr =
  let total = sum arr in
  let n = Array.length arr in
  if total <= 0.0 then Array.make n (if n = 0 then 0.0 else 1.0 /. float_of_int n)
  else Array.map (fun v -> v /. total) arr

let float_range lo hi steps =
  assert (steps >= 2);
  let step = (hi -. lo) /. float_of_int (steps - 1) in
  Array.init steps (fun i -> lo +. (float_of_int i *. step))
