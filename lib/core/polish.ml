(* Marginal utility of user u seeing item c at slot s, including the
   social utility flowing back from friends (both τ directions), given
   everyone else's frozen assignment. *)
let marginal inst assign ~user ~item ~slot =
  let lambda = Instance.lambda inst in
  let acc = ref ((1.0 -. lambda) *. Instance.pref inst user item) in
  Instance.iter_und inst user (fun v ->
      if v <> user && assign.(v).(slot) = item then begin
        acc := !acc +. (lambda *. Instance.tau inst user v item);
        acc := !acc +. (lambda *. Instance.tau inst v user item)
      end);
  !acc

(* One best-response sweep over the given user's cells; returns whether
   anything moved. *)
let sweep_user inst assign u =
  let m = Instance.m inst and k = Instance.k inst in
  let moved = ref false in
  let used = Array.make m false in
  Array.iter (fun c -> used.(c) <- true) assign.(u);
  for s = 0 to k - 1 do
    let current = assign.(u).(s) in
    let best = ref current in
    let best_gain = ref (marginal inst assign ~user:u ~item:current ~slot:s) in
    for c = 0 to m - 1 do
      if (not used.(c)) && c <> current then begin
        let gain = marginal inst assign ~user:u ~item:c ~slot:s in
        if gain > !best_gain +. 1e-12 then begin
          best := c;
          best_gain := gain
        end
      end
    done;
    if !best <> current then begin
      used.(current) <- false;
      used.(!best) <- true;
      assign.(u).(s) <- !best;
      moved := true
    end
  done;
  !moved

let improve ?(max_passes = 8) inst cfg =
  let assign = Config.assignment cfg in
  let n = Instance.n inst in
  let pass = ref 0 in
  let moved = ref true in
  while !moved && !pass < max_passes do
    incr pass;
    moved := false;
    for u = 0 to n - 1 do
      if sweep_user inst assign u then moved := true
    done
  done;
  (* [assign] is this function's private copy and every sweep move
     preserves the no-duplication invariant, so wrap it without the
     copy + re-validation of [Config.make] (which doubles the peak
     footprint of the repair step on large instances). *)
  Config.make_unchecked assign

let improve_users_in_place ?(max_passes = 8) inst assign users =
  let pass = ref 0 in
  let moved = ref true in
  while !moved && !pass < max_passes do
    incr pass;
    moved := false;
    Array.iter (fun u -> if sweep_user inst assign u then moved := true) users
  done

let improve_users ?max_passes inst cfg users =
  let assign = Config.assignment cfg in
  improve_users_in_place ?max_passes inst assign users;
  Config.make_unchecked assign

let gap_estimate inst relax cfg =
  let bound = Relaxation.upper_bound inst relax in
  if bound <= 0.0 then 1.0 else Config.total_utility inst cfg /. bound
