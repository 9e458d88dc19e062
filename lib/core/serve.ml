module Graph = Svgic_graph.Graph
module Rng = Svgic_util.Rng
module Pool = Svgic_util.Pool
module Supervise = Svgic_util.Supervise
module Mclock = Svgic_util.Mclock
module FA = Float.Array

type event =
  | Join of Dynamic.user_profile
  | Leave of int
  | Pref_delta of { user : int; item : int; value : float }
  | Tau_delta of { u : int; v : int; item : int; value : float }

(* Structural events keep submission order (the list is reversed);
   value deltas live in the coalescing tables instead. *)
type pending = P_join of int * Dynamic.user_profile | P_leave of int

(* Per-shard solve state. [members] are internal ids, increasing
   (= local id order of the sub-instance [solve_shard] builds, so the
   warm basis and the incumbent rows line up across ticks as long as
   the membership set is unchanged — [freshened] tracks that). *)
type shard_state = {
  mutable members : int array;
  mutable warm : Svgic_lp.Revised_simplex.vbasis option;
  mutable warm_n : int;
  mutable warm_pairs : int;
  mutable obj : float;  (** within-shard utility of the incumbent rows *)
  mutable upper_b : float;
      (** certified upper bound on the shard optimum (utility units);
          [infinity] = no current certificate, [0] for empty shards *)
  mutable degraded : bool;
  mutable freshened : bool;  (** membership changed since last solve *)
}

(* Durability attachment: the WAL writer plus checkpoint policy. *)
type durability = {
  dir : string;
  fsync : Wal.fsync_policy;
  checkpoint_every : int;  (** ticks between checkpoints *)
  retain : int;  (** checkpoints kept on disk *)
}

type dur_state = {
  wal : Wal.writer;
  d_opts : durability;
  mutable last_ckpt_tick : int;
  mutable ckpt_failures : int;
}

type t = {
  mutable inst : Instance.t;  (** root; mutated in place by value deltas *)
  mutable assign : int array array;  (** incumbent rows, internal ids *)
  mutable label : int array;  (** internal id -> shard id (stable across ticks) *)
  mutable shards : shard_state array;  (** grows; emptied husks stay *)
  mutable ext_of : int array;  (** internal -> external *)
  ext_slot : (int, int) Hashtbl.t;  (** external -> internal (alive only) *)
  mutable next_ext : int;
  pref_coal : (int * int, float) Hashtbl.t;  (** (ext, item) -> value, LWW *)
  tau_coal : (int * int * int, float) Hashtbl.t;  (** (ext, ext, item) -> value *)
  mutable structural : pending list;  (** reversed submission order *)
  mutable seen : int;
  (* Cut bookkeeping: pair endpoints (internal) plus both directed edge
     indices (-1 when that direction is absent), so the per-tick
     realized-cut and mass sums never pay the O(log deg) edge lookup. *)
  mutable cut_u : int array;
  mutable cut_v : int array;
  mutable cut_euv : int array;
  mutable cut_evu : int array;
  mutable cut_mass : float;
  mutable scratch : bool array;  (** per-shard touched marks, reused *)
  mutable repair_mark : bool array;
      (** per-user repair-set marks, reused; all false between ticks *)
  rng : Rng.t;
  rounding : Shard.rounding;
  deadline_s : float option;
  domains : int option;
  repair_passes : int;
  mutable tick_no : int;
  mutable events_total : int;  (** accepted submits since creation *)
  mutable objective_v : float;
  mutable bound_v : float;
  mutable upper_v : float;
  mutable dur : dur_state option;
}

type tick_stats = {
  tick : int;
  events_seen : int;
  events_applied : int;
  events_dropped : int;
  shards_touched : int;
  warm_hits : int;
  degraded : int;
  structural : bool;
  elapsed_s : float;
  objective : float;
  bound : float;
  upper : float;
}

(* ---- helpers ----------------------------------------------------- *)

let ensure_scratch t =
  let nsh = Array.length t.shards in
  if Array.length t.scratch < nsh then begin
    let s = Array.make nsh false in
    Array.blit t.scratch 0 s 0 (Array.length t.scratch);
    t.scratch <- s
  end

(* Within-shard utility of the incumbent rows of [members], read off
   the global state: preference part plus λ·τ over same-shard directed
   edges whose endpoints co-display. Each directed edge is counted
   once, from its source — the same accounting as
   [Config.total_utility] restricted to one shard. *)
let shard_obj_of t members =
  let inst = t.inst in
  let lambda = Instance.lambda inst in
  let k = Instance.k inst in
  let acc = ref 0.0 in
  Array.iter
    (fun u ->
      let row = t.assign.(u) in
      for s = 0 to k - 1 do
        acc := !acc +. ((1.0 -. lambda) *. Instance.pref inst u row.(s))
      done;
      Instance.iter_out_tau inst u (fun v e ->
          if t.label.(v) = t.label.(u) then begin
            let vrow = t.assign.(v) in
            for s = 0 to k - 1 do
              if row.(s) = vrow.(s) then
                acc := !acc +. (lambda *. Instance.tau_edge inst e row.(s))
            done
          end))
    members;
  !acc

(* Cross-shard social utility the incumbent configuration actually
   realizes — the gap between [Σ shard_obj] and the true objective. *)
let cut_realized t =
  let inst = t.inst in
  let lambda = Instance.lambda inst in
  let k = Instance.k inst in
  let acc = ref 0.0 in
  for i = 0 to Array.length t.cut_u - 1 do
    let ru = t.assign.(t.cut_u.(i)) and rv = t.assign.(t.cut_v.(i)) in
    for s = 0 to k - 1 do
      if ru.(s) = rv.(s) then begin
        if t.cut_euv.(i) >= 0 then
          acc := !acc +. (lambda *. Instance.tau_edge inst t.cut_euv.(i) ru.(s));
        if t.cut_evu.(i) >= 0 then
          acc := !acc +. (lambda *. Instance.tau_edge inst t.cut_evu.(i) ru.(s))
      end
    done
  done;
  !acc

(* The cut mass from the labels and the arenas alone, without the
   incremental tables (so [audit] can check them against it). *)
let cut_mass_recompute t =
  let inst = t.inst in
  let g = Instance.graph inst in
  let m = Instance.m inst in
  let mass = ref 0.0 in
  Instance.iter_pairs inst (fun _ u v ->
      if t.label.(u) <> t.label.(v) then begin
        let e1 = Graph.edge_index g u v and e2 = Graph.edge_index g v u in
        for c = 0 to m - 1 do
          if e1 >= 0 then mass := !mass +. Instance.tau_edge inst e1 c;
          if e2 >= 0 then mass := !mass +. Instance.tau_edge inst e2 c
        done
      end);
  Instance.lambda inst *. !mass

(* Full recomputation of the cut tables after a structural rebuild.
   Non-structural ticks never call this: value deltas adjust
   [cut_mass] incrementally from the old cell value [set_tau]
   returns. *)
let rebuild_cut t =
  let inst = t.inst in
  let g = Instance.graph inst in
  let count = ref 0 in
  Instance.iter_pairs inst (fun _ u v ->
      if t.label.(u) <> t.label.(v) then incr count);
  let cu = Array.make !count 0
  and cv = Array.make !count 0
  and ce1 = Array.make !count (-1)
  and ce2 = Array.make !count (-1) in
  let w = ref 0 in
  Instance.iter_pairs inst (fun _ u v ->
      if t.label.(u) <> t.label.(v) then begin
        cu.(!w) <- u;
        cv.(!w) <- v;
        ce1.(!w) <- Graph.edge_index g u v;
        ce2.(!w) <- Graph.edge_index g v u;
        incr w
      end);
  t.cut_u <- cu;
  t.cut_v <- cv;
  t.cut_euv <- ce1;
  t.cut_evu <- ce2;
  t.cut_mass <- cut_mass_recompute t

(* Members of every shard from the labels, in increasing internal-id
   order (= the local id order of the sub-instance [solve_shard]
   builds, so warm bases and incumbent rows line up across ticks). *)
let members_by_label nshards label =
  let cnt = Array.make nshards 0 in
  Array.iter (fun l -> cnt.(l) <- cnt.(l) + 1) label;
  let fill = Array.init nshards (fun s -> Array.make cnt.(s) 0) in
  let pos = Array.make nshards 0 in
  Array.iteri
    (fun u l ->
      fill.(l).(pos.(l)) <- u;
      pos.(l) <- pos.(l) + 1)
    label;
  fill

(* A shard that has never been solved: no certificate, no warm basis. *)
let fresh_shard members =
  {
    members;
    warm = None;
    warm_n = -1;
    warm_pairs = -1;
    obj = 0.0;
    upper_b = infinity;
    degraded = false;
    freshened = true;
  }

(* ---- event intake ------------------------------------------------ *)

(* WAL form of an event.  Joins are materialized: the profile's
   [tau_out]/[tau_in] closures are evaluated here, once per declared
   friend over all m items, because closures cannot be persisted and
   replay must not depend on them. *)
let wal_event_of t ev =
  let m = Instance.m t.inst in
  match ev with
  | Join p ->
      let jfriends =
        Array.map
          (fun f ->
            ( f,
              Array.init m (fun c -> p.Dynamic.tau_out f c),
              Array.init m (fun c -> p.Dynamic.tau_in f c) ))
          p.Dynamic.friends
      in
      Wal.Join { Wal.jpref = Array.copy p.Dynamic.pref; jfriends }
  | Leave ext -> Wal.Leave ext
  | Pref_delta { user; item; value } -> Wal.Pref { user; item; value }
  | Tau_delta { u; v; item; value } -> Wal.Tau { u; v; item; value }

(* Inverse of [wal_event_of]: rebuild a [Dynamic.user_profile] whose
   closures read the materialized rows (0.0 for an id that was never
   declared, matching the trace-replay semantics of [parse_line]). *)
let event_of_wal we =
  match we with
  | Wal.Join { Wal.jpref; jfriends } ->
      let row sel fext =
        let rec go i =
          if i >= Array.length jfriends then None
          else
            let e, o, i' = jfriends.(i) in
            if e = fext then Some (sel o i') else go (i + 1)
        in
        go 0
      in
      Join
        {
          Dynamic.pref = jpref;
          friends = Array.map (fun (e, _, _) -> e) jfriends;
          tau_out =
            (fun fext c ->
              match row (fun o _ -> o) fext with
              | Some r when c >= 0 && c < Array.length r -> r.(c)
              | _ -> 0.0);
          tau_in =
            (fun fext c ->
              match row (fun _ i -> i) fext with
              | Some r when c >= 0 && c < Array.length r -> r.(c)
              | _ -> 0.0);
        }
  | Wal.Leave ext -> Leave ext
  | Wal.Pref { user; item; value } -> Pref_delta { user; item; value }
  | Wal.Tau { u; v; item; value } -> Tau_delta { u; v; item; value }

let submit t ev =
  (* Log first, apply second: an event the WAL did not accept is never
     in memory either, so replay can only under-apply (the trace-resume
     path re-submits anything lost), never diverge.  When a WAL is
     attached, a Join is re-wrapped in its materialized form so the
     live run and a recovered replay read identical tau values even
     from an impure profile callback. *)
  let ev =
    match t.dur with
    | None -> ev
    | Some d ->
        let we = wal_event_of t ev in
        ignore (Wal.append d.wal (Wal.Event we) : int64);
        (match ev with Join _ -> event_of_wal we | _ -> ev)
  in
  t.seen <- t.seen + 1;
  t.events_total <- t.events_total + 1;
  match ev with
  | Join p ->
      let ext = t.next_ext in
      t.next_ext <- ext + 1;
      t.structural <- P_join (ext, p) :: t.structural;
      Some ext
  | Leave ext ->
      t.structural <- P_leave ext :: t.structural;
      None
  | Pref_delta { user; item; value } ->
      Hashtbl.replace t.pref_coal (user, item) value;
      None
  | Tau_delta { u; v; item; value } ->
      Hashtbl.replace t.tau_coal (u, v, item) value;
      None

let pending_events t = t.seen

let touched_preview t =
  ensure_scratch t;
  let sc = t.scratch in
  let mark ext =
    match Hashtbl.find_opt t.ext_slot ext with
    | Some i -> sc.(t.label.(i)) <- true
    | None -> ()
  in
  Hashtbl.iter (fun (u, _) _ -> mark u) t.pref_coal;
  Hashtbl.iter
    (fun (u, v, _) _ ->
      mark u;
      mark v)
    t.tau_coal;
  let count = ref 0 in
  Array.iter (fun b -> if b then incr count) sc;
  let out = Array.make !count 0 in
  let j = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        out.(!j) <- i;
        incr j;
        sc.(i) <- false
      end)
    sc;
  out

(* ---- structural rebuild ------------------------------------------ *)

(* Applies the tick's joins/leaves in submission order and rebuilds the
   instance: survivors keep their rows, labels and external ids
   (internal indices compact); newcomers get the majority label of
   their already-labelled friends (ties to the smallest label, no
   labelled friends -> a fresh singleton shard). Returns the shard ids
   whose membership changed. *)
let apply_structural t ~applied ~dropped =
  let inst = t.inst in
  let old_n = Instance.n inst in
  let m = Instance.m inst
  and kk = Instance.k inst
  and lambda = Instance.lambda inst in
  let g = Instance.graph inst in
  let alive = Array.make old_n true in
  let jlist = ref [] in
  let jalive = Hashtbl.create ~random:false 16 in
  let touched = ref [] in
  let evs = List.rev t.structural in
  t.structural <- [];
  List.iter
    (fun p ->
      match p with
      | P_join (ext, profile) ->
          if
            Array.length profile.Dynamic.pref <> m
            || not
                 (Array.for_all
                    (fun x -> Float.is_finite x && x >= 0.0)
                    profile.Dynamic.pref)
          then incr dropped
          else begin
            jlist := (ext, profile) :: !jlist;
            Hashtbl.replace jalive ext ();
            incr applied
          end
      | P_leave ext -> (
          match Hashtbl.find_opt t.ext_slot ext with
          | Some i when alive.(i) ->
              alive.(i) <- false;
              touched := t.label.(i) :: !touched;
              t.shards.(t.label.(i)).freshened <- true;
              incr applied
          | _ ->
              (* A leave can cancel a join from the same tick; anything
                 else targets a dead or never-issued id. *)
              if Hashtbl.mem jalive ext then begin
                Hashtbl.remove jalive ext;
                incr applied
              end
              else incr dropped))
    evs;
  let joins =
    List.rev !jlist
    |> List.filter (fun (e, _) -> Hashtbl.mem jalive e)
    |> Array.of_list
  in
  (* Renumber: survivors first (old order), then newcomers. *)
  let new_of_old = Array.make old_n (-1) in
  let nsurv = ref 0 in
  for u = 0 to old_n - 1 do
    if alive.(u) then begin
      new_of_old.(u) <- !nsurv;
      incr nsurv
    end
  done;
  let nsurv = !nsurv in
  let njoin = Array.length joins in
  let new_n = nsurv + njoin in
  let ext_of = Array.make new_n (-1) in
  for u = 0 to old_n - 1 do
    if alive.(u) then ext_of.(new_of_old.(u)) <- t.ext_of.(u)
  done;
  Array.iteri (fun j (ext, _) -> ext_of.(nsurv + j) <- ext) joins;
  Hashtbl.clear t.ext_slot;
  Array.iteri (fun i ext -> Hashtbl.replace t.ext_slot ext i) ext_of;
  (* Friends resolve through the rebuilt external map, so a newcomer
     can befriend another newcomer from the same tick; unknown ids are
     skipped. *)
  let friends_of =
    Array.map
      (fun (_, p) ->
        let out = ref [] in
        Array.iter
          (fun fext ->
            match Hashtbl.find_opt t.ext_slot fext with
            | Some i -> out := i :: !out
            | None -> ())
          p.Dynamic.friends;
        Array.of_list (List.rev !out))
      joins
  in
  let kept = ref 0 in
  Graph.iteri_edges g (fun _ u v -> if alive.(u) && alive.(v) then incr kept);
  let extra =
    Array.fold_left (fun acc fs -> acc + (2 * Array.length fs)) 0 friends_of
  in
  let eu = Array.make (!kept + extra) 0 and ev = Array.make (!kept + extra) 0 in
  let w = ref 0 in
  Graph.iteri_edges g (fun _ u v ->
      if alive.(u) && alive.(v) then begin
        eu.(!w) <- new_of_old.(u);
        ev.(!w) <- new_of_old.(v);
        incr w
      end);
  Array.iteri
    (fun j fs ->
      let nj = nsurv + j in
      Array.iter
        (fun f ->
          eu.(!w) <- nj;
          ev.(!w) <- f;
          incr w;
          eu.(!w) <- f;
          ev.(!w) <- nj;
          incr w)
        fs)
    friends_of;
  let graph' = Graph.of_edge_arrays ~n:new_n eu ev in
  let apref = FA.create (new_n * m) in
  for u = 0 to old_n - 1 do
    if alive.(u) then begin
      let base = new_of_old.(u) * m in
      for c = 0 to m - 1 do
        FA.set apref (base + c) (Instance.pref inst u c)
      done
    end
  done;
  Array.iteri
    (fun j (_, p) ->
      let base = (nsurv + j) * m in
      for c = 0 to m - 1 do
        FA.set apref (base + c) p.Dynamic.pref.(c)
      done)
    joins;
  let old_of_new = Array.make new_n (-1) in
  for u = 0 to old_n - 1 do
    if alive.(u) then old_of_new.(new_of_old.(u)) <- u
  done;
  let ne = Graph.num_edges graph' in
  let atau = FA.create (ne * m) in
  Graph.iteri_edges graph' (fun e u v ->
      let base = e * m in
      if u < nsurv && v < nsurv then begin
        let oe = Graph.edge_index g old_of_new.(u) old_of_new.(v) in
        for c = 0 to m - 1 do
          FA.set atau (base + c) (Instance.tau_edge inst oe c)
        done
      end
      else
        (* A newcomer endpoint: her profile defines τ, keyed by the
           other endpoint's external id. Non-finite or negative
           callback values are clamped to 0 rather than killing the
           session. *)
        let value c =
          if u >= nsurv then
            let _, p = joins.(u - nsurv) in
            p.Dynamic.tau_out ext_of.(v) c
          else
            let _, p = joins.(v - nsurv) in
            p.Dynamic.tau_in ext_of.(u) c
        in
        for c = 0 to m - 1 do
          let x = value c in
          FA.set atau (base + c)
            (if Float.is_finite x && x >= 0.0 then x else 0.0)
        done);
  let inst' =
    Instance.of_flat ~graph:graph' ~m ~k:kk ~lambda ~pref:apref ~tau:atau
  in
  let assign' = Array.make new_n [||] in
  for u = 0 to old_n - 1 do
    if alive.(u) then assign'.(new_of_old.(u)) <- t.assign.(u)
  done;
  let label' = Array.make new_n 0 in
  for u = 0 to old_n - 1 do
    if alive.(u) then label'.(new_of_old.(u)) <- t.label.(u)
  done;
  t.inst <- inst';
  t.assign <- assign';
  t.ext_of <- ext_of;
  (* A newcomer's placeholder row (their k preferred items, ties to the
     smaller id): valid immediately, and overwritten by their shard's
     re-solve unless the tick deadline already expired. *)
  Array.iteri
    (fun j (_, p) ->
      assign'.(nsurv + j) <- Svgic_util.Select.top_k kk p.Dynamic.pref)
    joins;
  (* Sticky labels for newcomers: majority vote over already-labelled
     friends, ties to the smallest label. *)
  let husks = ref [] in
  let nsh = ref (Array.length t.shards) in
  let counts = Hashtbl.create ~random:false 16 in
  for j = 0 to njoin - 1 do
    let nj = nsurv + j in
    Hashtbl.clear counts;
    let bestl = ref (-1) and bestc = ref 0 in
    Array.iter
      (fun f ->
        if f < nj then begin
          let l = label'.(f) in
          let c = (try Hashtbl.find counts l with Not_found -> 0) + 1 in
          Hashtbl.replace counts l c;
          if c > !bestc || (c = !bestc && l < !bestl) then begin
            bestl := l;
            bestc := c
          end
        end)
      friends_of.(j);
    if !bestl >= 0 then label'.(nj) <- !bestl
    else begin
      label'.(nj) <- !nsh;
      incr nsh;
      husks := fresh_shard [||] :: !husks
    end;
    touched := label'.(nj) :: !touched
  done;
  if !husks <> [] then
    t.shards <- Array.append t.shards (Array.of_list (List.rev !husks));
  t.label <- label';
  for j = 0 to njoin - 1 do
    t.shards.(label'.(nsurv + j)).freshened <- true
  done;
  (* Rebuild every shard's member array under the new numbering
     (membership sets of untouched shards are unchanged, so their
     stored objectives and warm bases stay valid). *)
  let fill = members_by_label (Array.length t.shards) label' in
  Array.iteri
    (fun s sh ->
      sh.members <- fill.(s);
      if Array.length fill.(s) = 0 then begin
        sh.obj <- 0.0;
        sh.upper_b <- 0.0;
        sh.degraded <- false;
        sh.warm <- None;
        sh.warm_n <- -1;
        sh.warm_pairs <- -1
      end)
    t.shards;
  rebuild_cut t;
  !touched

(* ---- per-shard solve --------------------------------------------- *)

(* Re-solve one touched shard through [Shard.solve_one]. Returns
   (warm_hit, degraded). Runs inside the [Pool] fan-out: it only
   mutates its own [shard_state] and its own members' rows, and only
   reads shared state that is frozen during the fan-out. *)
let solve_shard t token rng sid =
  let sh = t.shards.(sid) in
  let k = Instance.k t.inst in
  let sub, mapping = Instance.restrict_users t.inst sh.members in
  let npairs = Instance.num_pairs sub in
  let warm =
    if sh.warm_n = Array.length sh.members && sh.warm_pairs = npairs then
      sh.warm
    else None
  in
  (* When the membership survived, the incumbent rows are still
     feasible: a free floor candidate, and the fall-back on a deadline
     or fault (re-priced, since utilities may have drifted). A
     reshaped shard falls back to the greedy floor instead. *)
  let incumbent =
    if sh.freshened then None
    else
      let rows = Array.map (fun gu -> t.assign.(gu)) mapping in
      Some (Config.make_unchecked rows)
  in
  let r =
    Shard.solve_one ?warm ?incumbent ~token ~site:"serve.shard"
      ~index:((t.tick_no * 8191) + sid) ~rounding:t.rounding rng sub
  in
  Array.iteri
    (fun lu gu ->
      let row = t.assign.(gu) in
      for s = 0 to k - 1 do
        row.(s) <- Config.item r.Shard.s_config ~user:lu ~slot:s
      done)
    mapping;
  sh.obj <- r.Shard.s_utility;
  sh.degraded <- r.Shard.s_degraded;
  sh.upper_b <- r.Shard.s_upper;
  if not r.Shard.s_fell_back then begin
    sh.warm <- r.Shard.s_basis;
    sh.warm_n <- Array.length sh.members;
    sh.warm_pairs <- npairs
  end
  else if sh.freshened then begin
    sh.warm <- None;
    sh.warm_n <- -1;
    sh.warm_pairs <- -1
  end;
  sh.freshened <- false;
  (warm <> None, r.Shard.s_degraded)

(* ---- the tick ---------------------------------------------------- *)

(* Shared tail of [tick] and [create]'s initial solve: [t.scratch]
   already marks the touched shards. *)
let finish_tick t ~t0 ~token ~seen ~applied ~dropped ~structural ~repair_extra
    =
  let sc = t.scratch in
  let tl = ref [] in
  for s = Array.length t.shards - 1 downto 0 do
    if s < Array.length sc && sc.(s) then begin
      sc.(s) <- false;
      if Array.length t.shards.(s).members > 0 then tl := s :: !tl
    end
  done;
  let touched_ids = Array.of_list !tl in
  let ntouch = Array.length touched_ids in
  (* Per-shard streams derived serially before the fan-out, results
     reduced by index: bit-identical for every [domains] value. *)
  let streams = Rng.split_n t.rng ntouch in
  let results =
    Pool.parallel_map ?domains:t.domains ntouch (fun i ->
        solve_shard t token streams.(i) touched_ids.(i))
  in
  let warm_hits = ref 0 and degraded = ref 0 in
  Array.iter
    (fun (wh, dg) ->
      if wh then incr warm_hits;
      if dg then incr degraded)
    results;
  (* Cut repair: only cut endpoints incident to a re-solved shard (or
     hit by a cut τ delta) can have mispriced cells. *)
  Array.iter (fun s -> sc.(s) <- true) touched_ids;
  if t.repair_passes > 0 then begin
    let n = Instance.n t.inst in
    if Array.length t.repair_mark < n then
      t.repair_mark <-
        Array.make (max n (2 * Array.length t.repair_mark)) false;
    let mark = t.repair_mark in
    let users = ref [] in
    let add u =
      if not mark.(u) then begin
        mark.(u) <- true;
        users := u :: !users
      end
    in
    for i = 0 to Array.length t.cut_u - 1 do
      let u = t.cut_u.(i) and v = t.cut_v.(i) in
      if sc.(t.label.(u)) || sc.(t.label.(v)) then begin
        add u;
        add v
      end
    done;
    List.iter add repair_extra;
    List.iter (fun u -> mark.(u) <- false) !users;
    if !users <> [] then begin
      let us = Array.of_list !users in
      Array.sort compare us;
      (* The sweep writes only the repair users' rows and reads the
         rest, so it runs on the live rows without a copy. *)
      Polish.improve_users_in_place ~max_passes:t.repair_passes t.inst
        t.assign us;
      (* repair may shift rows in shards the solves never touched *)
      Array.iter (fun u -> sc.(t.label.(u)) <- true) us
    end
  end;
  (* Re-establish the bracket: recompute the within-shard utility of
     every shard whose rows (or data) moved; untouched shards keep
     their stored values. *)
  let sum_obj = ref 0.0 and sum_upper = ref 0.0 in
  Array.iteri
    (fun s sh ->
      if s < Array.length sc && sc.(s) then begin
        sc.(s) <- false;
        if Array.length sh.members > 0 then sh.obj <- shard_obj_of t sh.members
      end;
      sum_obj := !sum_obj +. sh.obj;
      sum_upper := !sum_upper +. sh.upper_b)
    t.shards;
  t.bound_v <- !sum_obj -. t.cut_mass;
  t.objective_v <- !sum_obj +. cut_realized t;
  t.upper_v <- !sum_upper +. t.cut_mass;
  {
    tick = t.tick_no;
    events_seen = seen;
    events_applied = !applied;
    events_dropped = !dropped;
    shards_touched = ntouch;
    warm_hits = !warm_hits;
    degraded = !degraded;
    structural;
    elapsed_s = Mclock.now_s () -. t0;
    objective = t.objective_v;
    bound = t.bound_v;
    upper = t.upper_v;
  }

(* ---- checkpointing ----------------------------------------------- *)

let write_snapshot t d =
  Checkpoint.write ~dir:d.d_opts.dir ~retain:d.d_opts.retain
    {
      Checkpoint.inst = t.inst;
      assign = t.assign;
      label = t.label;
      shards =
        Array.map
          (fun sh ->
            {
              Checkpoint.s_obj = sh.obj;
              s_upper = sh.upper_b;
              s_degraded = sh.degraded;
              s_freshened = sh.freshened;
              s_warm_n = sh.warm_n;
              s_warm_pairs = sh.warm_pairs;
              s_warm =
                Option.map Svgic_lp.Revised_simplex.vbasis_entries sh.warm;
            })
          t.shards;
      ext_of = t.ext_of;
      next_ext = t.next_ext;
      tick_no = t.tick_no;
      events_total = t.events_total;
      wal_seqno = Wal.last_seqno d.wal;
      cut_mass = t.cut_mass;
      objective_v = t.objective_v;
      bound_v = t.bound_v;
      upper_v = t.upper_v;
      rng = t.rng;
    }

(* Periodic checkpoint at the end of a tick.  A failed checkpoint is
   counted but never kills serving: the engine still has its previous
   checkpoint plus the WAL, which is exactly the recovery story. *)
let write_checkpoint_now t d =
  try
    ignore (write_snapshot t d : string);
    d.last_ckpt_tick <- t.tick_no
  with _ -> d.ckpt_failures <- d.ckpt_failures + 1

let maybe_checkpoint t =
  match t.dur with
  | None -> ()
  | Some d ->
      if t.tick_no - d.last_ckpt_tick >= max 1 d.d_opts.checkpoint_every then
        write_checkpoint_now t d

let tick t =
  let t0 = Mclock.now_s () in
  (* The tick boundary is logged (and, under [Every_tick], synced)
     before any state moves: a recovered replay sees the same
     event-window boundaries the live run committed to. *)
  (match t.dur with
  | None -> ()
  | Some d -> ignore (Wal.append d.wal (Wal.Tick (t.tick_no + 1)) : int64));
  let token = Supervise.create ?deadline_s:t.deadline_s () in
  t.tick_no <- t.tick_no + 1;
  let seen = t.seen in
  t.seen <- 0;
  let applied = ref 0 and dropped = ref 0 in
  let structural = t.structural <> [] in
  let touched_structural =
    if structural then apply_structural t ~applied ~dropped else []
  in
  ensure_scratch t;
  let sc = t.scratch in
  List.iter (fun s -> sc.(s) <- true) touched_structural;
  (* Value deltas (already coalesced last-writer-wins) mutate the
     arenas in place; a within-shard τ change re-solves the shard, a
     cut-edge τ change adjusts the cut mass and queues both endpoints
     for repair. *)
  let repair_extra = ref [] in
  Hashtbl.iter
    (fun (uext, item) value ->
      match Hashtbl.find_opt t.ext_slot uext with
      | None -> incr dropped
      | Some u -> (
          match Instance.set_pref t.inst ~user:u ~item value with
          | _old ->
              incr applied;
              sc.(t.label.(u)) <- true
          | exception Invalid_argument _ -> incr dropped))
    t.pref_coal;
  Hashtbl.clear t.pref_coal;
  Hashtbl.iter
    (fun (uext, vext, item) value ->
      match (Hashtbl.find_opt t.ext_slot uext, Hashtbl.find_opt t.ext_slot vext)
      with
      | Some u, Some v -> (
          match Instance.set_tau t.inst ~u ~v ~item value with
          | old ->
              incr applied;
              if t.label.(u) = t.label.(v) then sc.(t.label.(u)) <- true
              else begin
                t.cut_mass <-
                  t.cut_mass +. (Instance.lambda t.inst *. (value -. old));
                repair_extra := u :: v :: !repair_extra
              end
          | exception Invalid_argument _ -> incr dropped)
      | _ -> incr dropped)
    t.tau_coal;
  Hashtbl.clear t.tau_coal;
  let stats =
    finish_tick t ~t0 ~token ~seen ~applied ~dropped ~structural
      ~repair_extra:!repair_extra
  in
  maybe_checkpoint t;
  stats

(* ---- construction ------------------------------------------------ *)

(* The one constructor behind [create] and [restore]: the caller
   supplies the solve state, everything else (ext map, coalescing
   tables, cut tables, scratch) is derived here. The bracket terms
   start empty; [create]'s tick 0 fills them, [restore] copies them. *)
let make ~inst ~assign ~label ~shards ~ext_of ~next_ext ~tick_no
    ~events_total ~rng ~rounding ~deadline_s ~domains ~repair_passes =
  let n = Instance.n inst in
  let t =
    {
      inst;
      assign;
      label;
      shards;
      ext_of;
      ext_slot = Hashtbl.create ~random:false ((2 * n) + 16);
      next_ext;
      pref_coal = Hashtbl.create ~random:false 4096;
      tau_coal = Hashtbl.create ~random:false 4096;
      structural = [];
      seen = 0;
      cut_u = [||];
      cut_v = [||];
      cut_euv = [||];
      cut_evu = [||];
      cut_mass = 0.0;
      scratch = Array.make (Array.length shards) false;
      repair_mark = [||];
      rng;
      rounding;
      deadline_s;
      domains;
      repair_passes;
      tick_no;
      events_total;
      objective_v = 0.0;
      bound_v = 0.0;
      upper_v = infinity;
      dur = None;
    }
  in
  Array.iteri (fun i ext -> Hashtbl.replace t.ext_slot ext i) ext_of;
  rebuild_cut t;
  t

let create ?(labelling = Shard.Components)
    ?(rounding = Shard.Avg_d { r = None }) ?deadline_s ?domains
    ?(repair_passes = 2) rng inst0 =
  let inst = Instance.materialize inst0 in
  let t0 = Mclock.now_s () in
  let part = Shard.partition ~rng:(Rng.split rng) ~labelling inst in
  let n = Instance.n inst and k = Instance.k inst in
  let label = Array.make n 0 in
  Array.iteri
    (fun i { Shard.users; _ } -> Array.iter (fun u -> label.(u) <- i) users)
    part.Shard.shards;
  let shards =
    Array.map (fun sh -> fresh_shard sh.Shard.users) part.Shard.shards
  in
  let t =
    make ~inst
      ~assign:(Array.init n (fun _ -> Array.init k (fun s -> s)))
      ~label ~shards ~ext_of:(Array.init n Fun.id) ~next_ext:n ~tick_no:0
      ~events_total:0 ~rng ~rounding ~deadline_s ~domains ~repair_passes
  in
  (* Tick 0: solve everything (under the same deadline regime as any
     other tick — a tight SLO degrades startup rather than blocking). *)
  Array.iteri (fun s _ -> t.scratch.(s) <- true) t.shards;
  let token = Supervise.create ?deadline_s () in
  let (_ : tick_stats) =
    finish_tick t ~t0 ~token ~seen:0 ~applied:(ref 0) ~dropped:(ref 0)
      ~structural:false ~repair_extra:[]
  in
  t

(* ---- durability -------------------------------------------------- *)

let wal_file dir = Filename.concat dir "wal.svgic"

let enable_durability t (opts : durability) =
  if t.dur <> None then
    invalid_arg "Serve.enable_durability: already enabled";
  if
    t.seen > 0 || t.structural <> []
    || Hashtbl.length t.pref_coal > 0
    || Hashtbl.length t.tau_coal > 0
  then
    invalid_arg
      "Serve.enable_durability: pending events (tick before enabling)";
  Checkpoint.ensure_dir opts.dir;
  let path = wal_file opts.dir in
  let wal =
    if Sys.file_exists path then begin
      match Wal.open_append ~path ~policy:opts.fsync () with
      | Error e -> invalid_arg ("Serve.enable_durability: wal: " ^ e)
      | Ok (w, _) ->
          if Wal.items w <> Instance.m t.inst then
            invalid_arg "Serve.enable_durability: wal item count mismatch";
          w
    end
    else begin
      (match Checkpoint.list_files opts.dir with
      | [] -> ()
      | _ :: _ ->
          invalid_arg
            "Serve.enable_durability: directory has checkpoints but no wal \
             (use Serve.recover)");
      Wal.create ~path ~m:(Instance.m t.inst) ~policy:opts.fsync
    end
  in
  let d = { wal; d_opts = opts; last_ckpt_tick = t.tick_no; ckpt_failures = 0 } in
  t.dur <- Some d;
  (* The initial checkpoint anchors recovery before any event arrives;
     unlike the periodic ones, a failure here is fatal — an empty
     durability directory could not be recovered from at all. *)
  let (_ : string) =
    try write_snapshot t d
    with e ->
      t.dur <- None;
      Wal.close wal;
      raise e
  in
  d.last_ckpt_tick <- t.tick_no

let disable_durability t =
  match t.dur with
  | None -> ()
  | Some d ->
      Wal.close d.wal;
      t.dur <- None

let checkpoint_failures t =
  match t.dur with None -> 0 | Some d -> d.ckpt_failures
let wal_bytes t =
  match t.dur with None -> 0 | Some d -> Wal.bytes_written d.wal

let checkpoint t =
  match t.dur with
  | None -> invalid_arg "Serve.checkpoint: durability not enabled"
  | Some d -> write_snapshot t d

(* Rebuild a live engine from a validated snapshot.  Mirror image of
   [write_snapshot]: everything bit-carried (objectives, bounds, cut
   mass, RNG state) is restored verbatim; only the structural cut
   tables and the ext->internal map are derived. *)
let restore ?(rounding = Shard.Avg_d { r = None }) ?deadline_s ?domains
    ?(repair_passes = 2) (snap : Checkpoint.snapshot) =
  let members =
    members_by_label (Array.length snap.Checkpoint.shards) snap.Checkpoint.label
  in
  let shards =
    Array.mapi
      (fun s (ss : Checkpoint.shard_snap) ->
        {
          members = members.(s);
          warm =
            Option.map Svgic_lp.Revised_simplex.vbasis_of_entries
              ss.Checkpoint.s_warm;
          warm_n = ss.Checkpoint.s_warm_n;
          warm_pairs = ss.Checkpoint.s_warm_pairs;
          obj = ss.Checkpoint.s_obj;
          upper_b = ss.Checkpoint.s_upper;
          degraded = ss.Checkpoint.s_degraded;
          freshened = ss.Checkpoint.s_freshened;
        })
      snap.Checkpoint.shards
  in
  let t =
    make ~inst:snap.Checkpoint.inst ~assign:snap.Checkpoint.assign
      ~label:snap.Checkpoint.label ~shards ~ext_of:snap.Checkpoint.ext_of
      ~next_ext:snap.Checkpoint.next_ext ~tick_no:snap.Checkpoint.tick_no
      ~events_total:snap.Checkpoint.events_total ~rng:snap.Checkpoint.rng
      ~rounding ~deadline_s ~domains ~repair_passes
  in
  (* the incremental cut mass is bit-carried; [rebuild_cut] only
     recomputed the structural pair/edge tables *)
  t.cut_mass <- snap.Checkpoint.cut_mass;
  t.objective_v <- snap.Checkpoint.objective_v;
  t.bound_v <- snap.Checkpoint.bound_v;
  t.upper_v <- snap.Checkpoint.upper_v;
  t

(* ---- audit ------------------------------------------------------- *)

type audit_report = {
  audit_ok : bool;
  bad_shards : int list;  (** stored within-shard obj <> recomputed *)
  cut_drift : float;  (** |stored cut mass − recomputed| *)
  objective_drift : float;  (** |stored objective − recomputed| *)
  bracket_ok : bool;  (** bound ≤ obj ≤ upper *)
  structure_ok : bool;  (** labels/members/ext map shape checks *)
  repaired : int list;  (** shards demoted to a fresh re-solve *)
}

let audit ?(repair = false) ?(tol = 1e-6) t =
  let n = Instance.n t.inst in
  let nshards = Array.length t.shards in
  (* structure: shapes, ranges, the members-vs-label partition and the
     external-id bijection *)
  let structure_ok =
    Array.length t.assign = n
    && Array.length t.label = n
    && Array.length t.ext_of = n
    && Array.for_all (fun l -> l >= 0 && l < nshards) t.label
    && members_by_label nshards t.label
       = Array.map (fun sh -> sh.members) t.shards
    && Array.for_all
         (fun ext ->
           match Hashtbl.find_opt t.ext_slot ext with
           | Some i -> i >= 0 && i < n && t.ext_of.(i) = ext
           | None -> false)
         t.ext_of
  in
  let close a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a) in
  (* The same check before and after a repair: failing shards, cut and
     objective drift, and the bracket on recomputed values. *)
  let check () =
    let bad = ref [] in
    Array.iteri
      (fun s sh ->
        if Array.length sh.members > 0 || sh.obj <> 0.0 then
          if not (close sh.obj (shard_obj_of t sh.members)) then
            bad := s :: !bad)
      t.shards;
    let cut_drift = Float.abs (t.cut_mass -. cut_mass_recompute t) in
    let obj_re = Config.total_utility t.inst (Config.make_unchecked t.assign) in
    let objective_drift = Float.abs (t.objective_v -. obj_re) in
    let scale = 1.0 +. Float.abs obj_re in
    let bracket_ok =
      t.bound_v <= obj_re +. (tol *. scale)
      && obj_re <= t.upper_v +. (tol *. scale)
    in
    let ok =
      !bad = []
      && cut_drift <= tol *. (1.0 +. t.cut_mass)
      && objective_drift <= tol *. scale
      && bracket_ok
    in
    (List.rev !bad, cut_drift, objective_drift, bracket_ok, ok)
  in
  let bad_shards, cut_drift, objective_drift, bracket_ok, ok = check () in
  if ok || not repair then
    {
      audit_ok = structure_ok && ok;
      bad_shards;
      cut_drift;
      objective_drift;
      bracket_ok;
      structure_ok;
      repaired = [];
    }
  else begin
    (* Repair: rebuild the cut tables from the arenas, demote every
       failing shard to a fresh cold re-solve, and let the standard
       tick tail re-establish the bracket. *)
    rebuild_cut t;
    ensure_scratch t;
    let demoted =
      if bad_shards <> [] then bad_shards
      else List.init nshards Fun.id
           |> List.filter (fun s -> Array.length t.shards.(s).members > 0)
    in
    List.iter
      (fun s ->
        let sh = t.shards.(s) in
        sh.warm <- None;
        sh.warm_n <- -1;
        sh.warm_pairs <- -1;
        sh.freshened <- true;
        t.scratch.(s) <- true)
      demoted;
    let token = Supervise.create ?deadline_s:t.deadline_s () in
    let (_ : tick_stats) =
      finish_tick t ~t0:(Mclock.now_s ()) ~token ~seen:0 ~applied:(ref 0)
        ~dropped:(ref 0) ~structural:false ~repair_extra:[]
    in
    let _, cut_drift, objective_drift, bracket_ok, ok = check () in
    {
      audit_ok = structure_ok && ok;
      bad_shards;
      cut_drift;
      objective_drift;
      bracket_ok;
      structure_ok;
      repaired = demoted;
    }
  end

(* ---- recovery ---------------------------------------------------- *)

type recovery = {
  checkpoint_path : string;
  checkpoint_seqno : int64;
  checkpoints_skipped : (string * string) list;
  replayed_events : int;
  replayed_ticks : int;
  wal_records : int;
  torn_bytes : int;  (** bytes truncated off the WAL tail *)
}

let recover ?rounding ?deadline_s ?domains ?repair_passes
    ?(fsync = Wal.Every_tick) ?(checkpoint_every = 1) ?(retain = 2) ~dir ()
    =
  match Checkpoint.load_latest dir with
  | Error e -> Error e
  | Ok (ckpt_path, snap, skipped) -> (
      let t =
        restore ?rounding ?deadline_s ?domains ?repair_passes snap
      in
      let path = wal_file dir in
      (* WAL lost entirely: seed a fresh header, so the scan replays
         nothing and [open_append] continues seqnos past the
         checkpoint. *)
      if not (Sys.file_exists path) then
        Wal.close (Wal.create ~path ~m:(Instance.m t.inst) ~policy:fsync);
      let replayed_events = ref 0 and replayed_ticks = ref 0 in
      let replay seq r =
        if Int64.compare seq snap.Checkpoint.wal_seqno > 0 then
          match r with
          | Wal.Event we ->
              incr replayed_events;
              ignore (submit t (event_of_wal we) : int option)
          | Wal.Tick _ ->
              incr replayed_ticks;
              ignore (tick t : tick_stats)
      in
      match Wal.scan ~f:replay path with
      | Error e -> Error ("wal: " ^ e)
      | Ok sc ->
          if sc.Wal.scan_m <> Instance.m t.inst then
            Error "wal: item count mismatch with checkpoint"
          else begin
            let torn_bytes = sc.Wal.file_size - sc.Wal.valid_end in
            match
              Wal.open_append ~path ~policy:fsync
                ~min_seqno:snap.Checkpoint.wal_seqno ()
            with
            | Error e -> Error ("wal reopen: " ^ e)
            | Ok (wal, _) ->
                let opts = { dir; fsync; checkpoint_every; retain } in
                let d =
                  { wal; d_opts = opts; last_ckpt_tick = t.tick_no;
                    ckpt_failures = 0 }
                in
                t.dur <- Some d;
                (* A fresh checkpoint of the recovered state bounds the
                   next recovery's replay work. *)
                write_checkpoint_now t d;
                Ok
                  ( t,
                    {
                      checkpoint_path = ckpt_path;
                      checkpoint_seqno = snap.Checkpoint.wal_seqno;
                      checkpoints_skipped = skipped;
                      replayed_events = !replayed_events;
                      replayed_ticks = !replayed_ticks;
                      wal_records = sc.Wal.records;
                      torn_bytes;
                    } )
          end)

(* ---- fingerprint ------------------------------------------------- *)

(* CRC-32 over every bit of observable solve state: dimensions, the
   incumbent rows, labels, external ids, counters, the bracket terms
   and both arenas.  Two engines with equal fingerprints serve
   identical configurations and will evolve identically under the
   same future event stream (modulo RNG state, which the checkpoint
   carries separately). *)
let fingerprint t =
  let module Crc32 = Svgic_util.Crc32 in
  let buf = Bytes.create 8 in
  let crc = ref 0 in
  let add_i v =
    Bytes.set_int64_le buf 0 (Int64.of_int v);
    crc := Crc32.update_bytes !crc buf ~pos:0 ~len:8
  in
  let add_f v =
    Bytes.set_int64_le buf 0 (Int64.bits_of_float v);
    crc := Crc32.update_bytes !crc buf ~pos:0 ~len:8
  in
  let inst = t.inst in
  let n = Instance.n inst and m = Instance.m inst in
  add_i n;
  add_i m;
  add_i (Instance.k inst);
  add_i t.next_ext;
  add_i t.tick_no;
  add_i t.events_total;
  Array.iter (fun row -> Array.iter add_i row) t.assign;
  Array.iter add_i t.label;
  Array.iter add_i t.ext_of;
  add_f t.objective_v;
  add_f t.bound_v;
  add_f t.upper_v;
  add_f t.cut_mass;
  for u = 0 to n - 1 do
    for c = 0 to m - 1 do
      add_f (Instance.pref inst u c)
    done
  done;
  Instance.iter_edges inst (fun e u v ->
      add_i u;
      add_i v;
      for c = 0 to m - 1 do
        add_f (Instance.tau_edge inst e c)
      done);
  !crc

(* ---- accessors --------------------------------------------------- *)

let instance t = t.inst
let config t = Config.make_unchecked (Array.map Array.copy t.assign)
let objective t = t.objective_v
let bound t = t.bound_v
let upper t = t.upper_v
let num_users t = Instance.n t.inst
let num_shards t = Array.length t.shards
let tick_count t = t.tick_no
let events_total t = t.events_total
let user_ids t = Array.copy t.ext_of
let internal_of t ext = Hashtbl.find_opt t.ext_slot ext

(* ---- trace parsing ----------------------------------------------- *)

type line = Line_event of event | Line_tick | Line_blank

let parse_line s =
  let s = String.trim s in
  if s = "" || s.[0] = '#' then Ok Line_blank
  else
    let toks =
      String.split_on_char ' ' s |> List.filter (fun x -> x <> "")
    in
    match toks with
    | [ "tick" ] -> Ok Line_tick
    | [ "pref"; u; c; v ] -> (
        try
          Ok
            (Line_event
               (Pref_delta
                  {
                    user = int_of_string u;
                    item = int_of_string c;
                    value = float_of_string v;
                  }))
        with _ -> Error ("malformed pref line: " ^ s))
    | [ "tau"; u; v; c; x ] -> (
        try
          Ok
            (Line_event
               (Tau_delta
                  {
                    u = int_of_string u;
                    v = int_of_string v;
                    item = int_of_string c;
                    value = float_of_string x;
                  }))
        with _ -> Error ("malformed tau line: " ^ s))
    | [ "leave"; u ] -> (
        try Ok (Line_event (Leave (int_of_string u)))
        with _ -> Error ("malformed leave line: " ^ s))
    | "join" :: prefs :: friends -> (
        try
          let pref =
            String.split_on_char ',' prefs
            |> List.map float_of_string
            |> Array.of_list
          in
          let fr =
            List.map
              (fun f ->
                match String.split_on_char ':' f with
                | [ a; b; c ] ->
                    (int_of_string a, float_of_string b, float_of_string c)
                | _ -> failwith "friend triple")
              friends
            |> Array.of_list
          in
          let look sel fext =
            let rec go i =
              if i >= Array.length fr then 0.0
              else
                let a, b, c = fr.(i) in
                if a = fext then sel b c else go (i + 1)
            in
            go 0
          in
          Ok
            (Line_event
               (Join
                  {
                    Dynamic.pref;
                    friends = Array.map (fun (a, _, _) -> a) fr;
                    tau_out = (fun fext _ -> look (fun b _ -> b) fext);
                    tau_in = (fun fext _ -> look (fun _ c -> c) fext);
                  }))
        with _ -> Error ("malformed join line: " ^ s))
    | _ -> Error ("unrecognized event line: " ^ s)
