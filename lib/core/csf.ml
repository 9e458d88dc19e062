(* The utility factors and the per-item user ordering are read-only
   once built; [prep] shares them across the CSF states of repeated
   roundings (AVG best-of-N, per-shard repeats) instead of paying the
   n·m factor materialization and m sorts per state. *)
type prep = {
  inst : Instance.t;
  factor_table : float array array; (* n x m *)
  sorted : int array array lazy_t; (* m x n: users by decreasing factor *)
}

type t = {
  prep : prep;
  assign : int array array; (* n x k, -1 = empty *)
  used : bool array array; (* n x m *)
  sizes : int array array; (* m x k *)
  lock_table : bool array array; (* m x k *)
  size_cap : int option;
  mutable empty_cells : int;
}

let make_prep inst relax =
  let n = Instance.n inst and m = Instance.m inst in
  let factor_table =
    Array.init n (fun u ->
        Array.init m (fun c -> Relaxation.factor inst relax u c))
  in
  let sorted =
    lazy
      (Array.init m (fun c ->
           let order = Array.init n (fun u -> u) in
           Array.sort
             (fun a b ->
               let cmp = compare factor_table.(b).(c) factor_table.(a).(c) in
               if cmp <> 0 then cmp else compare a b)
             order;
           order))
  in
  { inst; factor_table; sorted }

let prepare inst relax =
  let prep = make_prep inst relax in
  (* Forced eagerly: [prepare] exists for fan-out sharing, and
     [Lazy.force] is not domain-safe. The instance's own shared lazy
     is forced for the same reason. *)
  ignore (Lazy.force prep.sorted);
  ignore (Instance.scaled_pref inst);
  prep

let of_prep ?size_cap prep =
  let inst = prep.inst in
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  (match size_cap with
  | Some cap when cap < 1 -> invalid_arg "Csf.create: size_cap must be >= 1"
  | Some _ | None -> ());
  {
    prep;
    assign = Array.make_matrix n k (-1);
    used = Array.make_matrix n m false;
    sizes = Array.make_matrix m k 0;
    lock_table = Array.make_matrix m k false;
    size_cap;
    empty_cells = n * k;
  }

let create ?size_cap inst relax = of_prep ?size_cap (make_prep inst relax)

let instance t = t.prep.inst
let factors t = t.prep.factor_table
let remaining t = t.empty_cells
let complete t = t.empty_cells = 0

let item_used t ~user ~item = t.used.(user).(item)

let fill_slot_empty t ~slot out =
  for u = 0 to Array.length t.assign - 1 do
    out.(u) <- t.assign.(u).(slot) = -1
  done

let eligible t ~user ~item ~slot =
  t.assign.(user).(slot) = -1
  && (not t.used.(user).(item))
  && not t.lock_table.(item).(slot)

let group_size t ~item ~slot = t.sizes.(item).(slot)
let locked t ~item ~slot = t.lock_table.(item).(slot)
let sorted_users t c = (Lazy.force t.prep.sorted).(c)

let assign_cell t ~user ~item ~slot =
  if t.assign.(user).(slot) <> -1 then invalid_arg "Csf.assign_cell: cell taken";
  if t.used.(user).(item) then invalid_arg "Csf.assign_cell: duplicate item";
  t.assign.(user).(slot) <- item;
  t.used.(user).(item) <- true;
  t.sizes.(item).(slot) <- t.sizes.(item).(slot) + 1;
  t.empty_cells <- t.empty_cells - 1;
  match t.size_cap with
  | Some cap when t.sizes.(item).(slot) >= cap -> t.lock_table.(item).(slot) <- true
  | Some _ | None -> ()

let apply t ~item ~slot ~alpha =
  if t.lock_table.(item).(slot) then []
  else begin
    let order = sorted_users t item in
    let budget =
      match t.size_cap with
      | Some cap -> cap - t.sizes.(item).(slot)
      | None -> max_int
    in
    let assigned = ref [] in
    let count = ref 0 in
    (try
       Array.iter
         (fun u ->
           if t.prep.factor_table.(u).(item) < alpha then raise Exit;
           if !count >= budget then raise Exit;
           if eligible t ~user:u ~item ~slot then begin
             assign_cell t ~user:u ~item ~slot;
             assigned := u :: !assigned;
             incr count
           end)
         order
     with Exit -> ());
    (* Lock when the cap was hit and eligible users remain below it. *)
    (match t.size_cap with
    | Some cap when t.sizes.(item).(slot) >= cap ->
        t.lock_table.(item).(slot) <- true
    | Some _ | None -> ());
    List.rev !assigned
  end

let max_eligible_factor t ~item ~slot =
  if t.lock_table.(item).(slot) then -1.0
  else begin
    let order = sorted_users t item in
    let n = Array.length order in
    let rec scan i =
      if i >= n then -1.0
      else
        let u = order.(i) in
        if eligible t ~user:u ~item ~slot then t.prep.factor_table.(u).(item)
        else scan (i + 1)
    in
    scan 0
  end

let greedy_complete t =
  let inst = t.prep.inst in
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  let p' = Instance.scaled_pref inst in
  let factor_table = t.prep.factor_table in
  for u = 0 to n - 1 do
    for s = 0 to k - 1 do
      if t.assign.(u).(s) = -1 then begin
        let best = ref (-1) in
        for c = 0 to m - 1 do
          if (not t.used.(u).(c)) && not t.lock_table.(c).(s) then
            if
              !best = -1
              || factor_table.(u).(c) > factor_table.(u).(!best)
              || (factor_table.(u).(c) = factor_table.(u).(!best)
                 && p'.(u).(c) > p'.(u).(!best))
            then best := c
        done;
        (* Under a size cap every item/slot could in principle be
           locked; fall back to ignoring locks (a locked pair only
           means the subgroup is full — joining it would violate the
           cap, so prefer any unlocked item first, but correctness of
           the no-duplication constraint must win). *)
        if !best = -1 then
          for c = 0 to m - 1 do
            if (not t.used.(u).(c)) && !best = -1 then best := c
          done;
        if !best = -1 then failwith "Csf.greedy_complete: k > m?";
        t.assign.(u).(s) <- !best;
        t.used.(u).(!best) <- true;
        t.sizes.(!best).(s) <- t.sizes.(!best).(s) + 1;
        t.empty_cells <- t.empty_cells - 1
      end
    done
  done

let to_config t =
  if t.empty_cells > 0 then invalid_arg "Csf.to_config: incomplete configuration";
  Config.make t.prep.inst t.assign
