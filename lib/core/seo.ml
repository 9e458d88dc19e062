type event = { name : string }

(* The LP shape the stored warm basis was built for: a basis only
   transfers to a program of identical shape, and [Relaxation.solve]'s
   own shape check keys on variable/row counts — which can collide
   across *different* populations (same n·m with different pairs). The
   plan pins the population signature so [replan] can drop a stale
   basis itself instead of trusting the caller to know. *)
type shape = { sn : int; sm : int; sk : int; spairs : int }

type plan = {
  instance : Instance.t;
  config : Config.t;
  events : event array;
  capacity : int;
  relax : Relaxation.t;
  shape : shape;
}

let shape_of inst =
  {
    sn = Instance.n inst;
    sm = Instance.m inst;
    sk = Instance.k inst;
    spairs = Instance.num_pairs inst;
  }

let organize rng ~graph ~events ~rounds ~capacity ~pref ~tau ~lambda =
  let m = Array.length events in
  let n = Svgic_graph.Graph.n graph in
  if capacity * m < n + ((rounds - 1) * capacity) then
    invalid_arg "Seo.organize: not enough event capacity for a feasible schedule";
  let inst = Instance.create ~graph ~m ~k:rounds ~lambda ~pref ~tau in
  let relax = Relaxation.solve inst in
  let config = St.avg rng inst relax ~m_cap:capacity in
  { instance = inst; config; events; capacity; relax; shape = shape_of inst }

(* Re-run the randomized rounding phase — the LP re-solve warm starts
   from the stored basis, so a replan costs a handful of pivots plus
   the rounding itself. Self-checking: when the population changed
   shape since the plan was built (a caller swapped in a grown
   instance via [?instance]), the stored basis is dropped here rather
   than handed to the solver's weaker count-keyed shape check. *)
let replan ?instance rng plan =
  let inst = match instance with Some i -> i | None -> plan.instance in
  if instance <> None && Array.length plan.events <> Instance.m inst then
    invalid_arg "Seo.replan: instance item count must match the event list";
  let shape = shape_of inst in
  let warm =
    if shape = plan.shape then plan.relax.Relaxation.basis else None
  in
  let relax = Relaxation.solve ?warm inst in
  let config = St.avg rng inst relax ~m_cap:plan.capacity in
  { plan with instance = inst; config; relax; shape }

let attendees plan ~round ~event =
  let n = Instance.n plan.instance in
  let out = ref [] in
  for u = n - 1 downto 0 do
    if Config.item plan.config ~user:u ~slot:round = event then out := u :: !out
  done;
  Array.of_list !out

let schedule_of plan ~user =
  Array.map (fun e -> plan.events.(e)) (Config.row plan.config user)

let total_welfare plan = Config.total_utility plan.instance plan.config

let max_event_load plan =
  let k = Instance.k plan.instance in
  let best = ref 0 in
  for s = 0 to k - 1 do
    Array.iter
      (fun members -> best := max !best (Array.length members))
      (Config.subgroups_at_slot plan.config plan.instance s)
  done;
  !best
