module Graph = Svgic_graph.Graph

(* Stable external ids over a compact internal numbering.

   The instance (and every array in it) is indexed by *internal* ids
   0..n-1, which [Instance.restrict_users] compacts on every leave —
   the id instability the old API leaked to callers. The session now
   carries the remap:

     ext_of.(i)  = external id of internal user i
     slot.(e)    = current internal id of external id e, -1 tombstone
     free        = tombstoned external ids, reused LIFO by joins

   External ids are the only ids the API speaks; they survive any
   sequence of joins and leaves. *)
type t = {
  inst : Instance.t;
  cfg : Config.t;
  relax : Relaxation.t;
  ext_of : int array;
  slot : int array;
  free : int list;
}

type user_profile = {
  pref : float array;
  tau_out : int -> int -> float;
  tau_in : int -> int -> float;
  friends : int array;
}

let start ?warm rng inst =
  let relax = Relaxation.solve ?warm inst in
  let n = Instance.n inst in
  {
    inst;
    cfg = Algorithms.avg rng inst relax;
    relax;
    ext_of = Array.init n (fun i -> i);
    slot = Array.init n (fun i -> i);
    free = [];
  }

let instance t = t.inst
let config t = t.cfg
let relaxation t = t.relax
let total_utility t = Config.total_utility t.inst t.cfg

let internal_of t ext =
  if ext < 0 || ext >= Array.length t.slot then None
  else
    let i = t.slot.(ext) in
    if i < 0 then None else Some i

let user_ids t = Array.copy t.ext_of

(* Marginal SAVG utility (both directions) of the newcomer u seeing
   item c at slot s, given the frozen assignment of everyone else. *)
let marginal inst assign ~user ~item ~slot =
  let lambda = Instance.lambda inst in
  let g = Instance.graph inst in
  let acc = ref ((1.0 -. lambda) *. Instance.pref inst user item) in
  Array.iter
    (fun v ->
      if v <> user && assign.(v).(slot) = item then begin
        acc := !acc +. (lambda *. Instance.tau inst user v item);
        acc := !acc +. (lambda *. Instance.tau inst v user item)
      end)
    (Graph.neighbors_undirected g user);
  !acc

let fill_row_greedy inst assign ~user =
  let m = Instance.m inst and k = Instance.k inst in
  let used = Array.make m false in
  for s = 0 to k - 1 do
    let best = ref (-1) and best_gain = ref neg_infinity in
    for c = 0 to m - 1 do
      if not used.(c) then begin
        let gain = marginal inst assign ~user ~item:c ~slot:s in
        if gain > !best_gain then begin
          best := c;
          best_gain := gain
        end
      end
    done;
    assign.(user).(s) <- !best;
    used.(!best) <- true
  done;
  (* One improvement pass: try swapping any two of the newcomer's slots
     (alignment with different friend groups may prefer another
     order). *)
  let row_gain () =
    let acc = ref 0.0 in
    for s = 0 to k - 1 do
      acc := !acc +. marginal inst assign ~user ~item:assign.(user).(s) ~slot:s
    done;
    !acc
  in
  for s1 = 0 to k - 2 do
    for s2 = s1 + 1 to k - 1 do
      let before = row_gain () in
      let a = assign.(user).(s1) and b = assign.(user).(s2) in
      assign.(user).(s1) <- b;
      assign.(user).(s2) <- a;
      if row_gain () < before then begin
        assign.(user).(s1) <- a;
        assign.(user).(s2) <- b
      end
    done
  done

let join t profile =
  let old_n = Instance.n t.inst in
  let new_user = old_n in
  if Array.length profile.pref <> Instance.m t.inst then
    invalid_arg "Dynamic.join: preference vector has wrong length";
  let friends_internal =
    Array.map
      (fun ext ->
        match internal_of t ext with
        | Some i -> i
        | None ->
            invalid_arg
              (Printf.sprintf "Dynamic.join: unknown friend id %d" ext))
      profile.friends
  in
  let new_edges =
    Array.to_list friends_internal
    |> List.concat_map (fun v -> [ (new_user, v); (v, new_user) ])
  in
  let graph =
    Graph.of_edges ~n:(old_n + 1)
      (Array.to_list (Graph.edges (Instance.graph t.inst)) @ new_edges)
  in
  let pref =
    Array.init (old_n + 1) (fun u ->
        if u = new_user then Array.copy profile.pref
        else Array.init (Instance.m t.inst) (fun c -> Instance.pref t.inst u c))
  in
  (* The profile's τ callbacks are keyed by *external* friend id — the
     only vocabulary a caller holds across leaves. *)
  let tau u v c =
    if u = new_user then profile.tau_out t.ext_of.(v) c
    else if v = new_user then profile.tau_in t.ext_of.(u) c
    else Instance.tau t.inst u v c
  in
  let inst =
    Instance.create ~graph ~m:(Instance.m t.inst) ~k:(Instance.k t.inst)
      ~lambda:(Instance.lambda t.inst) ~pref ~tau
  in
  let assign =
    Array.init (old_n + 1) (fun u ->
        if u = new_user then Array.make (Instance.k t.inst) (-1)
        else Config.row t.cfg u)
  in
  fill_row_greedy inst assign ~user:new_user;
  (* External id: pop the free list (tombstone reuse), else mint the
     next fresh id by extending the slot table. *)
  let ext, free, slot =
    match t.free with
    | e :: rest ->
        let slot = Array.copy t.slot in
        slot.(e) <- new_user;
        (e, rest, slot)
    | [] ->
        let e = Array.length t.slot in
        let slot = Array.append t.slot [| new_user |] in
        (e, [], slot)
  in
  let ext_of = Array.append t.ext_of [| ext |] in
  (* The stored relaxation is for the old population; it is kept only
     as a (shape-checked, hence safely ignored) warm-start hint. *)
  ( { inst; cfg = Config.make inst assign; relax = t.relax; ext_of; slot; free },
    ext )

let leave t ext =
  let user =
    match internal_of t ext with
    | Some i -> i
    | None -> invalid_arg "Dynamic.leave: unknown user"
  in
  let old_n = Instance.n t.inst in
  let keep =
    Array.of_list (List.filter (( <> ) user) (List.init old_n (fun i -> i)))
  in
  let inst, mapping = Instance.restrict_users t.inst keep in
  let assign = Array.map (fun old -> Config.row t.cfg old) mapping in
  let ext_of = Array.map (fun old -> t.ext_of.(old)) mapping in
  let slot = Array.copy t.slot in
  slot.(ext) <- -1;
  Array.iteri (fun nu e -> slot.(e) <- nu) ext_of;
  {
    inst;
    cfg = Config.make inst assign;
    relax = t.relax;
    ext_of;
    slot;
    free = ext :: t.free;
  }

(* Warm start the relaxation re-solve from the stored basis: when the
   population is unchanged the LP has the same shape and the old
   optimal basis is optimal or nearly so; after joins/leaves the shape
   differs and the solver falls back to a cold start on its own. *)
let resolve rng t =
  let relax = Relaxation.solve ?warm:t.relax.Relaxation.basis t.inst in
  (* Unlike [start], the external-id remap survives: a resolve changes
     the configuration, never who the users are. *)
  { t with relax; cfg = Algorithms.avg rng t.inst relax }
