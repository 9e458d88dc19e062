(* Sparse basis factorization: Markowitz LU with threshold partial
   pivoting and Forrest–Tomlin updates. See factor.mli for the
   architecture notes.

   Steps. A step pairs a pivot row with the basis column whose
   position is that row. A rebuild numbers its steps 0..m-1 in pivot
   order; L keeps that numbering ([l_row] / [l_step]) until the next
   rebuild. U's steps are renumbered by updates: replacing the column
   at position [r] retires [r]'s step and gives [r] a new step at the
   end of the pivot order, so U's steps run 0..nsteps-1 with retired
   steps ([p_row] = -1) among them, and a later step always has a
   larger index — which is what the worklist heaps order by.

   U is kept in two views that every update edits together: the row
   view (each step's off-diagonal entries, as the basis position of
   the column they sit in) and the column view [ut_*] (each column's
   entries, as the step of the row they sit in). A row grows in place
   up to its capacity and moves to the end of its pool when full; a
   column never grows, since an update only removes entries from
   existing columns and appends its spike as a new one. Deletions
   swap the last entry into the hole.

   Storage discipline: every factor lives in flat arenas — parallel
   [int array] / [Float.Array.t] pools indexed by per-step offsets —
   that are grown geometrically and never shrunk, so the apply paths
   (ftran/btran/update) never allocate once the arenas have reached
   their working size, and repeated refactorizations reuse the same
   memory. The Markowitz working matrix (dynamic rows + column
   candidate lists + count buckets) is equally persistent, allocated
   lazily on the first refactorization so small solves that never
   refactorize pay nothing; its per-row entry arrays and per-column
   candidate lists start at [entry_cap0] slots, not at the pools'
   64-slot floor, because a basis row holds a handful of entries.
   [reset] re-arms a factor for a new basis size, keeping all of this
   memory while the size fits (arrays are reallocated, and the working
   matrix remade, only when it grows), which is how the revised
   simplex's per-domain workspace reuses one factor across solves. *)

module FA = Float.Array
module Timer = Svgic_util.Timer

exception Singular

type stats = {
  refactorizations : int;
  fill_nnz : int;
  basis_nnz : int;
  updates : int;
  update_nnz : int;
  factor_s : float;
}

let ztol = 1e-9 (* pivot-magnitude floor *)
let drop_tol = 1e-12 (* entries below this are discarded *)
let tau = 0.1 (* threshold partial pivoting: |a| >= tau * colmax *)
let markowitz_scan = 4 (* candidate columns examined per pivot search *)
let lu_update_cap = 512 (* hard bound on updates between rebuilds *)
let ft_tol = 1e-8 (* relative stability test of an updated diagonal *)
let entry_cap0 = 4 (* first capacity of a working-matrix row / column list *)

(* Markowitz working state: the active submatrix as dynamic rows
   (explicit (col, val) entry arrays with doubling capacity), per-
   column candidate row lists (append-only, lazily compacted — an
   entry may be stale after a cancellation or a row retirement, so
   every consumer re-probes the row), exact per-column active counts
   kept in doubly-linked count buckets for the ascending-count pivot
   search, and singleton stacks feeding the fill-free elimination
   pre-pass. *)
type ws = {
  mutable cbuf_i : int array; (* column load / pivot-row copy buffer *)
  mutable cbuf_v : float array;
  r_idx : int array array; (* per-row entry columns *)
  r_val : float array array; (* matching values *)
  r_len : int array;
  c_rows : int array array; (* per-column candidate rows (may be stale) *)
  c_cap : int array;
  c_len : int array;
  c_cnt : int array; (* exact active entries per column *)
  r_alive : bool array;
  c_alive : bool array;
  wpos : int array; (* row scatter map: col -> position + 1 *)
  b_head : int array; (* count -> first column of that count *)
  b_next : int array;
  b_prev : int array;
  sc : int array; (* column-singleton stack *)
  sr : int array; (* row-singleton stack *)
  mutable nsc : int;
  mutable nsr : int;
  mutable piv_col : int; (* column of the pivot [pick_pivot] returned *)
  in_sc : bool array;
  in_sr : bool array;
  step_of_col : int array; (* pivot step of each column slot *)
  ut_cnt : int array; (* transposed-U counting sort: entries per step *)
  ut_pos : int array; (* ... and each step's next free slot *)
}

(* Per-row arrays hold at least [m] cells and per-step arrays at least
   [m + 1]; a factor re-armed by [reset] for a smaller basis keeps its
   longer arrays and only ever reads the cells its basis uses. *)
type t = {
  mutable m : int;
  (* L of the last rebuild: step t (0..nl-1) pivoted row [l_row.(t)],
     and its multipliers (rows below) sit in the l pool. Empty (nl = 0)
     while the factor starts from the identity. *)
  mutable nl : int;
  mutable l_row : int array;
  mutable l_step : int array; (* row -> L step *)
  mutable l_start : int array; (* nl + 1 offsets into the l pool *)
  mutable l_idx : int array;
  mutable l_val : FA.t;
  mutable l_n : int;
  (* Row etas, one per update, applied after L: eta k rewrites row
     [eta_row.(k)] as itself minus [eta_val.(i) * w.(eta_idx.(i))] over
     its entries. *)
  mutable neta : int;
  mutable eta_row : int array;
  mutable eta_start : int array; (* neta + 1 offsets *)
  mutable eta_idx : int array;
  mutable eta_val : FA.t;
  mutable eta_n : int;
  (* U over steps 0..nsteps-1: step t pivots row [p_row.(t)] (-1 once
     retired) with value [diag.(t)]. Row view: step t's off-diagonal
     entries (basis position of their column, value) in
     [u_start.(t) .. u_start.(t) + u_len.(t) - 1] of the u pool, room
     up to [u_cap.(t)]. Column view: the entries of step s's column
     (row step, value) in [ut_start.(s) .. ut_start.(s) + ut_len.(s) -
     1] of the ut pool. *)
  mutable nsteps : int;
  mutable p_row : int array;
  mutable diag : FA.t;
  mutable step_of_row : int array; (* row -> live U step *)
  mutable u_start : int array;
  mutable u_len : int array;
  mutable u_cap : int array;
  mutable u_idx : int array;
  mutable u_val : FA.t;
  mutable u_n : int;
  mutable ut_start : int array;
  mutable ut_len : int array;
  mutable ut_t : int array;
  mutable ut_v : FA.t;
  mutable ut_n : int;
  (* The spike: the last [ftran_pattern] column after L and the row
     etas, dense by row (zero outside [sp_idx]), which [update] writes
     into U. *)
  mutable sp_idx : int array;
  mutable sp_val : float array;
  mutable sp_n : int;
  mutable sp_ok : bool;
  (* Pattern scratch for the hypersparse apply path and the update. *)
  mutable in_pat : bool array;
  mutable hp : int array; (* binary heap of step indices *)
  mutable in_hp : bool array; (* per step *)
  mutable hp_n : int;
  mutable last_np : int; (* pattern size of the last [ftran_pattern] result *)
  mutable rw : float array; (* row-eta scratch by row, zero between updates *)
  (* Refactorization policy + counters. *)
  mutable force_every : int option;
  mutable unstable : bool; (* an update failed the stability test *)
  mutable nupd : int; (* updates since the last rebuild *)
  mutable upd_nnz : int; (* their fill *)
  mutable base_nnz : int;
  mutable basis_nnz : int;
  mutable refactorizations : int;
  mutable updates : int;
  mutable update_nnz : int;
  mutable factor_s : float;
  mutable ws : ws option;
}

let stats f =
  {
    refactorizations = f.refactorizations;
    fill_nnz = f.base_nnz;
    basis_nnz = f.basis_nnz;
    updates = f.updates;
    update_nnz = f.update_nnz;
    factor_s = f.factor_s;
  }

let updates_since_refactor f = f.nupd
let set_refactor_every f p = f.force_every <- p

let should_refactor f =
  f.unstable
  ||
  match f.force_every with
  | Some p -> f.nupd >= p
  | None ->
      (* Amortized balance: once applying the update file costs about
         as much as the base solve itself, a rebuild pays for itself
         within a few iterations. *)
      f.nupd >= lu_update_cap || f.upd_nnz > f.base_nnz + f.m

(* ---------------- arena growth ------------------------------------ *)

let grow_int a needed =
  let cap = Array.length a in
  if needed <= cap then a
  else begin
    let b = Array.make (max needed (max 64 (2 * cap))) 0 in
    Array.blit a 0 b 0 cap;
    b
  end

let grow_fa a needed =
  let cap = FA.length a in
  if needed <= cap then a
  else begin
    let b = FA.make (max needed (max 64 (2 * cap))) 0.0 in
    FA.blit a 0 b 0 cap;
    b
  end

let ensure_l f needed =
  f.l_idx <- grow_int f.l_idx needed;
  f.l_val <- grow_fa f.l_val needed

let ensure_u f needed =
  f.u_idx <- grow_int f.u_idx needed;
  f.u_val <- grow_fa f.u_val needed

let ensure_ut f needed =
  f.ut_t <- grow_int f.ut_t needed;
  f.ut_v <- grow_fa f.ut_v needed

let ensure_eta f ~etas ~pool =
  f.eta_row <- grow_int f.eta_row etas;
  f.eta_start <- grow_int f.eta_start (etas + 1);
  f.eta_idx <- grow_int f.eta_idx pool;
  f.eta_val <- grow_fa f.eta_val pool

(* Room for [n] U steps in every per-step array. *)
let ensure_steps f n =
  if n > Array.length f.p_row then begin
    f.p_row <- grow_int f.p_row n;
    f.diag <- grow_fa f.diag n;
    f.u_start <- grow_int f.u_start n;
    f.u_len <- grow_int f.u_len n;
    f.u_cap <- grow_int f.u_cap n;
    f.ut_start <- grow_int f.ut_start n;
    f.ut_len <- grow_int f.ut_len n;
    let b = Array.make (Array.length f.p_row) false in
    Array.blit f.in_hp 0 b 0 (Array.length f.in_hp);
    f.in_hp <- b
  end

(* Forget the update file: no row etas, no pending spike. *)
let clear_updates f =
  f.neta <- 0;
  f.eta_n <- 0;
  for k = 0 to f.sp_n - 1 do
    f.sp_val.(f.sp_idx.(k)) <- 0.0
  done;
  f.sp_n <- 0;
  f.sp_ok <- false;
  f.unstable <- false;
  f.nupd <- 0;
  f.upd_nnz <- 0

(* The identity: no L, U = I on steps 0..m-1. *)
let reset_identity f =
  let m = f.m in
  clear_updates f;
  f.nl <- 0;
  f.l_n <- 0;
  f.nsteps <- m;
  for t = 0 to m - 1 do
    f.p_row.(t) <- t;
    FA.set f.diag t 1.0;
    f.step_of_row.(t) <- t;
    f.u_start.(t) <- 0;
    f.u_len.(t) <- 0;
    f.u_cap.(t) <- 0;
    f.ut_start.(t) <- 0;
    f.ut_len.(t) <- 0
  done;
  f.u_n <- 0;
  f.ut_n <- 0;
  f.base_nnz <- m;
  f.basis_nnz <- m

let create ~m =
  let mm = max 1 m in
  let f =
    {
      m;
      nl = 0;
      l_row = Array.make mm 0;
      l_step = Array.make mm 0;
      l_start = Array.make (mm + 1) 0;
      l_idx = [||];
      l_val = FA.create 0;
      l_n = 0;
      neta = 0;
      eta_row = [||];
      eta_start = Array.make 1 0;
      eta_idx = [||];
      eta_val = FA.create 0;
      eta_n = 0;
      nsteps = 0;
      p_row = Array.make (mm + 1) 0;
      diag = FA.make (mm + 1) 0.0;
      step_of_row = Array.make mm 0;
      u_start = Array.make (mm + 1) 0;
      u_len = Array.make (mm + 1) 0;
      u_cap = Array.make (mm + 1) 0;
      u_idx = [||];
      u_val = FA.create 0;
      u_n = 0;
      ut_start = Array.make (mm + 1) 0;
      ut_len = Array.make (mm + 1) 0;
      ut_t = [||];
      ut_v = FA.create 0;
      ut_n = 0;
      sp_idx = Array.make mm 0;
      sp_val = Array.make mm 0.0;
      sp_n = 0;
      sp_ok = false;
      in_pat = Array.make mm false;
      hp = Array.make mm 0;
      in_hp = Array.make (mm + 1) false;
      hp_n = 0;
      last_np = 0;
      rw = Array.make mm 0.0;
      force_every = None;
      unstable = false;
      nupd = 0;
      upd_nnz = 0;
      base_nnz = m;
      basis_nnz = m;
      refactorizations = 0;
      updates = 0;
      update_nnz = 0;
      factor_s = 0.0;
      ws = None;
    }
  in
  reset_identity f;
  f

let make_ws m =
  let mm = max 1 m in
  {
    cbuf_i = Array.make mm 0;
    cbuf_v = Array.make mm 0.0;
    r_idx = Array.make mm [||];
    r_val = Array.make mm [||];
    r_len = Array.make mm 0;
    c_rows = Array.make mm [||];
    c_cap = Array.make mm 0;
    c_len = Array.make mm 0;
    c_cnt = Array.make mm 0;
    r_alive = Array.make mm true;
    c_alive = Array.make mm true;
    wpos = Array.make mm 0;
    b_head = Array.make (mm + 2) (-1);
    b_next = Array.make mm (-1);
    b_prev = Array.make mm (-1);
    sc = Array.make mm 0;
    sr = Array.make mm 0;
    nsc = 0;
    nsr = 0;
    piv_col = -1;
    in_sc = Array.make mm false;
    in_sr = Array.make mm false;
    step_of_col = Array.make mm 0;
    ut_cnt = Array.make mm 0;
    ut_pos = Array.make mm 0;
  }

let get_ws f =
  match f.ws with
  | Some w -> w
  | None ->
      let w = make_ws (Array.length f.step_of_row) in
      f.ws <- Some w;
      w

let reset f ~m =
  let cap = Array.length f.step_of_row in
  if m > cap then begin
    let cap = max m (2 * cap) in
    f.l_row <- Array.make cap 0;
    f.l_step <- Array.make cap 0;
    f.l_start <- Array.make (cap + 1) 0;
    f.step_of_row <- Array.make cap 0;
    f.sp_idx <- Array.make cap 0;
    f.sp_val <- Array.make cap 0.0;
    f.sp_n <- 0;
    f.in_pat <- Array.make cap false;
    f.hp <- Array.make cap 0;
    f.rw <- Array.make cap 0.0;
    (* The working matrix is remade at the new capacity on the next
       refactorization. *)
    f.ws <- None
  end
  else begin
    (* Marks and scratch that a pattern solve or an update left behind
       if an asynchronous exception (a signal handler's, say) cut it
       short. *)
    let rows = max m f.m in
    Array.fill f.in_pat 0 rows false;
    Array.fill f.rw 0 rows 0.0;
    Array.fill f.sp_val 0 rows 0.0;
    f.sp_n <- 0;
    Array.fill f.in_hp 0 (min (Array.length f.in_hp) (max rows f.nsteps)) false
  end;
  ensure_steps f (m + 1);
  f.m <- m;
  reset_identity f;
  f.last_np <- 0;
  f.force_every <- None;
  f.refactorizations <- 0;
  f.updates <- 0;
  f.update_nnz <- 0;
  f.factor_s <- 0.0

let ensure_cbuf ws needed =
  ws.cbuf_i <- grow_int ws.cbuf_i needed;
  if needed > Array.length ws.cbuf_v then begin
    let b = Array.make (Array.length ws.cbuf_i) 0.0 in
    Array.blit ws.cbuf_v 0 b 0 (Array.length ws.cbuf_v);
    ws.cbuf_v <- b
  end

(* ---------------- apply paths ------------------------------------- *)

let ftran f w =
  (* Forward elimination through L (multipliers in step order)... *)
  for t = 0 to f.nl - 1 do
    let wp = w.(f.l_row.(t)) in
    if wp <> 0.0 then
      for i = f.l_start.(t) to f.l_start.(t + 1) - 1 do
        w.(f.l_idx.(i)) <- w.(f.l_idx.(i)) -. (FA.get f.l_val i *. wp)
      done
  done;
  (* ...then the row etas in update order... *)
  for k = 0 to f.neta - 1 do
    let r = f.eta_row.(k) in
    let acc = ref w.(r) in
    for i = f.eta_start.(k) to f.eta_start.(k + 1) - 1 do
      acc := !acc -. (FA.get f.eta_val i *. w.(f.eta_idx.(i)))
    done;
    w.(r) <- !acc
  done;
  (* ...then back substitution through U's row view (reverse step
     order; retired steps skipped). *)
  for t = f.nsteps - 1 downto 0 do
    let r = f.p_row.(t) in
    if r >= 0 then begin
      let acc = ref w.(r) in
      let s0 = f.u_start.(t) in
      for i = s0 to s0 + f.u_len.(t) - 1 do
        acc := !acc -. (FA.get f.u_val i *. w.(f.u_idx.(i)))
      done;
      w.(r) <- (if !acc = 0.0 then 0.0 else !acc /. FA.get f.diag t)
    end
  done

let btran f y =
  (* U^T forward substitution (scatter over the row view)... *)
  for t = 0 to f.nsteps - 1 do
    let r = f.p_row.(t) in
    if r >= 0 then begin
      let v = y.(r) in
      if v <> 0.0 then begin
        let s = v /. FA.get f.diag t in
        y.(r) <- s;
        let s0 = f.u_start.(t) in
        for i = s0 to s0 + f.u_len.(t) - 1 do
          y.(f.u_idx.(i)) <- y.(f.u_idx.(i)) -. (FA.get f.u_val i *. s)
        done
      end
      else y.(r) <- 0.0
    end
  done;
  (* ...the row etas transposed, newest first... *)
  for k = f.neta - 1 downto 0 do
    let v = y.(f.eta_row.(k)) in
    if v <> 0.0 then
      for i = f.eta_start.(k) to f.eta_start.(k + 1) - 1 do
        y.(f.eta_idx.(i)) <- y.(f.eta_idx.(i)) -. (FA.get f.eta_val i *. v)
      done
  done;
  (* ...then L^T in reverse step order (gather form). *)
  for t = f.nl - 1 downto 0 do
    let r = f.l_row.(t) in
    let acc = ref y.(r) in
    for i = f.l_start.(t) to f.l_start.(t + 1) - 1 do
      acc := !acc -. (FA.get f.l_val i *. y.(f.l_idx.(i)))
    done;
    y.(r) <- !acc
  done

(* ---------------- hypersparse apply ------------------------------- *)

(* Binary heaps over step indices, backing the pattern-driven FTRAN and
   the update's row elimination: a min-heap drives the L forward pass
   and the elimination (their dependencies point to later steps, so
   pops ascend) and a max-heap drives the U back substitution
   (dependencies point to earlier steps, so pops descend). One storage
   arena serves all three — the passes never overlap. [in_hp] dedups
   pushes, and a step is processed at most once per pass because every
   push made while draining lies strictly on the far side of the step
   just popped. *)

let hp_push_min f t =
  if not f.in_hp.(t) then begin
    f.in_hp.(t) <- true;
    let hp = f.hp in
    let i = ref f.hp_n in
    f.hp_n <- f.hp_n + 1;
    hp.(!i) <- t;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if hp.(p) > t then begin
        hp.(!i) <- hp.(p);
        hp.(p) <- t;
        i := p
      end
      else sifting := false
    done
  end

let hp_pop_min f =
  let hp = f.hp in
  let top = hp.(0) in
  f.in_hp.(top) <- false;
  f.hp_n <- f.hp_n - 1;
  if f.hp_n > 0 then begin
    hp.(0) <- hp.(f.hp_n);
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= f.hp_n then sifting := false
      else begin
        let c = if l + 1 < f.hp_n && hp.(l + 1) < hp.(l) then l + 1 else l in
        if hp.(c) < hp.(!i) then begin
          let tmp = hp.(c) in
          hp.(c) <- hp.(!i);
          hp.(!i) <- tmp;
          i := c
        end
        else sifting := false
      end
    done
  end;
  top

let hp_push_max f t =
  if not f.in_hp.(t) then begin
    f.in_hp.(t) <- true;
    let hp = f.hp in
    let i = ref f.hp_n in
    f.hp_n <- f.hp_n + 1;
    hp.(!i) <- t;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if hp.(p) < t then begin
        hp.(!i) <- hp.(p);
        hp.(p) <- t;
        i := p
      end
      else sifting := false
    done
  end

let hp_pop_max f =
  let hp = f.hp in
  let top = hp.(0) in
  f.in_hp.(top) <- false;
  f.hp_n <- f.hp_n - 1;
  if f.hp_n > 0 then begin
    hp.(0) <- hp.(f.hp_n);
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= f.hp_n then sifting := false
      else begin
        let c = if l + 1 < f.hp_n && hp.(l + 1) > hp.(l) then l + 1 else l in
        if hp.(c) > hp.(!i) then begin
          let tmp = hp.(c) in
          hp.(c) <- hp.(!i);
          hp.(!i) <- tmp;
          i := c
        end
        else sifting := false
      end
    done
  end;
  top

(* Appends row [i] to the pattern [idx] of length [np] unless it is
   already marked; returns the new length. A top-level function rather
   than a closure over a counter, so FTRAN allocates nothing per
   pivot. *)
let[@inline] mark_row in_pat idx np i =
  if in_pat.(i) then np
  else begin
    in_pat.(i) <- true;
    idx.(np) <- i;
    np + 1
  end

(* The factor passes of [ftran_pattern], in two orders that do the
   same floating-point operations in the same sequence and mark rows in
   the same sequence. All take and return the pattern length.

   Heap order: the L forward pass fires a step only once its pivot row
   is nonzero, and firing scatters into later-pivoted rows, so the
   min-heap pops steps in ascending order and visits only the steps the
   pattern reaches. The U back substitution runs in scatter form off
   the column view: finalizing a step divides by its diagonal and
   pushes its value into the earlier-pivoted rows that reference it,
   so the max-heap pops in descending order. *)
let ftran_l_heap f w idx np =
  let in_pat = f.in_pat in
  let np = ref np in
  f.hp_n <- 0;
  for k = 0 to !np - 1 do
    hp_push_min f f.l_step.(idx.(k))
  done;
  while f.hp_n > 0 do
    let t = hp_pop_min f in
    let wp = w.(f.l_row.(t)) in
    if wp <> 0.0 then
      for i = f.l_start.(t) to f.l_start.(t + 1) - 1 do
        let j = f.l_idx.(i) in
        np := mark_row in_pat idx !np j;
        w.(j) <- w.(j) -. (FA.get f.l_val i *. wp);
        hp_push_min f f.l_step.(j)
      done
  done;
  !np

let ftran_u_heap f w idx np =
  let in_pat = f.in_pat in
  let np = ref np in
  f.hp_n <- 0;
  for k = 0 to !np - 1 do
    hp_push_max f f.step_of_row.(idx.(k))
  done;
  while f.hp_n > 0 do
    let s = hp_pop_max f in
    let r = f.p_row.(s) in
    let v = w.(r) in
    if v <> 0.0 then begin
      let z = v /. FA.get f.diag s in
      w.(r) <- z;
      let s0 = f.ut_start.(s) in
      for i = s0 to s0 + f.ut_len.(s) - 1 do
        let t = f.ut_t.(i) in
        let rt = f.p_row.(t) in
        np := mark_row in_pat idx !np rt;
        w.(rt) <- w.(rt) -. (FA.get f.ut_v i *. z);
        hp_push_max f t
      done
    end
  done;
  !np

(* Dense order: every step in plain loops, ascending for L and
   descending for U (retired U steps skipped). A row outside the
   pattern holds an exact zero, so its step does nothing here and is
   never popped in heap order; every other step fires in the order the
   heaps would pop it. U stays the scatter over the column view: the
   gather form of [ftran] sums each row's terms in another order. *)
let ftran_l_dense f w idx np =
  let in_pat = f.in_pat in
  let np = ref np in
  for t = 0 to f.nl - 1 do
    let wp = w.(f.l_row.(t)) in
    if wp <> 0.0 then
      for i = f.l_start.(t) to f.l_start.(t + 1) - 1 do
        let j = f.l_idx.(i) in
        np := mark_row in_pat idx !np j;
        w.(j) <- w.(j) -. (FA.get f.l_val i *. wp)
      done
  done;
  !np

let ftran_u_dense f w idx np =
  let in_pat = f.in_pat in
  let np = ref np in
  for s = f.nsteps - 1 downto 0 do
    let r = f.p_row.(s) in
    if r >= 0 then begin
      let v = w.(r) in
      if v <> 0.0 then begin
        let z = v /. FA.get f.diag s in
        w.(r) <- z;
        let s0 = f.ut_start.(s) in
        for i = s0 to s0 + f.ut_len.(s) - 1 do
          let rt = f.p_row.(f.ut_t.(i)) in
          np := mark_row in_pat idx !np rt;
          w.(rt) <- w.(rt) -. (FA.get f.ut_v i *. z)
        done
      end
    end
  done;
  !np

(* The row etas, pattern-tracked: a row joins the pattern only when
   its eta leaves it nonzero, so rows outside stay exact zeros. *)
let ftran_r f w idx np =
  let in_pat = f.in_pat in
  let np = ref np in
  for k = 0 to f.neta - 1 do
    let r = f.eta_row.(k) in
    let acc = ref w.(r) in
    for i = f.eta_start.(k) to f.eta_start.(k + 1) - 1 do
      acc := !acc -. (FA.get f.eta_val i *. w.(f.eta_idx.(i)))
    done;
    if in_pat.(r) then w.(r) <- !acc
    else if !acc <> 0.0 then begin
      np := mark_row in_pat idx !np r;
      w.(r) <- !acc
    end
  done;
  !np

(* Keep the column as it stands between the row etas and U: the spike
   an [update] writes into U. *)
let save_spike f w idx np =
  let sp = f.sp_val in
  for k = 0 to f.sp_n - 1 do
    sp.(f.sp_idx.(k)) <- 0.0
  done;
  for k = 0 to np - 1 do
    let i = idx.(k) in
    f.sp_idx.(k) <- i;
    sp.(i) <- w.(i)
  done;
  f.sp_n <- np;
  f.sp_ok <- true

let ftran_pattern f w idx n =
  let in_pat = f.in_pat in
  (* Dedup the incoming pattern in place while marking it. *)
  let np = ref 0 in
  for k = 0 to n - 1 do
    np := mark_row in_pat idx !np idx.(k)
  done;
  (* The heaps pay a log factor per reached step; once results fill
     more than a tenth of the rows, the plain loops are cheaper. The
     previous result predicts this one (consecutive entering columns
     of one basis fill alike), and either order gives the same bits. *)
  let dense = 10 * f.last_np > f.m in
  if f.nl > 0 then
    np :=
      (if dense then ftran_l_dense f w idx !np else ftran_l_heap f w idx !np);
  np := ftran_r f w idx !np;
  save_spike f w idx !np;
  np := if dense then ftran_u_dense f w idx !np else ftran_u_heap f w idx !np;
  for k = 0 to !np - 1 do
    in_pat.(idx.(k)) <- false
  done;
  f.last_np <- !np;
  !np

(* ---------------- Forrest–Tomlin update --------------------------- *)

(* Drop row step [t]'s entry from column [c]'s list. *)
let ut_remove f c t =
  let s0 = f.ut_start.(c) in
  let last = s0 + f.ut_len.(c) - 1 in
  let i = ref s0 in
  while f.ut_t.(!i) <> t do
    incr i
  done;
  f.ut_t.(!i) <- f.ut_t.(last);
  FA.set f.ut_v !i (FA.get f.ut_v last);
  f.ut_len.(c) <- f.ut_len.(c) - 1

(* Drop the entry in basis position [r]'s column from step [t]'s row. *)
let u_remove f t r =
  let s0 = f.u_start.(t) in
  let last = s0 + f.u_len.(t) - 1 in
  let i = ref s0 in
  while f.u_idx.(!i) <> r do
    incr i
  done;
  f.u_idx.(!i) <- f.u_idx.(last);
  FA.set f.u_val !i (FA.get f.u_val last);
  f.u_len.(t) <- f.u_len.(t) - 1

(* Append (position [r], spike value of row [i]) to step [t]'s row,
   moving the row to the end of the pool when it is full. The value is
   read here, not passed: a float argument would be boxed. *)
let u_append f t r i =
  let len = f.u_len.(t) in
  if len >= f.u_cap.(t) then begin
    let cap = max entry_cap0 (2 * len) in
    ensure_u f (f.u_n + cap);
    let s0 = f.u_start.(t) in
    Array.blit f.u_idx s0 f.u_idx f.u_n len;
    FA.blit f.u_val s0 f.u_val f.u_n len;
    f.u_start.(t) <- f.u_n;
    f.u_cap.(t) <- cap;
    f.u_n <- f.u_n + cap
  end;
  let p = f.u_start.(t) + len in
  f.u_idx.(p) <- r;
  FA.set f.u_val p f.sp_val.(i);
  f.u_len.(t) <- len + 1

(* The column at basis position [r] (step s) leaves and the spike
   enters, in four moves:
   1. eliminate row s's off-diagonal entries with the rows of later
      steps (min-heap, ascending), recording the multipliers as one
      row eta; the new diagonal is the spike's row-r entry minus the
      same combination of its other entries;
   2. retire row s from the column view and column s from the row
      view;
   3. give position r a new last step carrying that diagonal;
   4. write the spike's other entries as the new step's column, in
      both views. *)
let update f ~pivot_row:r w =
  if not f.sp_ok then
    invalid_arg "Factor.update: no spike; call ftran_pattern first";
  f.sp_ok <- false;
  let sp = f.sp_val in
  let s = f.step_of_row.(r) in
  let rw = f.rw in
  let k = f.neta in
  ensure_eta f ~etas:(k + 1) ~pool:f.eta_n;
  f.eta_row.(k) <- r;
  f.eta_start.(k) <- f.eta_n;
  f.hp_n <- 0;
  let s0 = f.u_start.(s) and slen = f.u_len.(s) in
  for i = s0 to s0 + slen - 1 do
    let c = f.u_idx.(i) in
    rw.(c) <- FA.get f.u_val i;
    hp_push_min f f.step_of_row.(c)
  done;
  let dnew = ref sp.(r) in
  while f.hp_n > 0 do
    let t = hp_pop_min f in
    let rt = f.p_row.(t) in
    let x = rw.(rt) in
    rw.(rt) <- 0.0;
    if Float.abs x > drop_tol then begin
      let mu = x /. FA.get f.diag t in
      if f.eta_n >= FA.length f.eta_val then
        ensure_eta f ~etas:(k + 1) ~pool:(f.eta_n + 1);
      f.eta_idx.(f.eta_n) <- rt;
      FA.set f.eta_val f.eta_n mu;
      f.eta_n <- f.eta_n + 1;
      dnew := !dnew -. (mu *. sp.(rt));
      let t0 = f.u_start.(t) in
      for i = t0 to t0 + f.u_len.(t) - 1 do
        let c = f.u_idx.(i) in
        rw.(c) <- rw.(c) -. (mu *. FA.get f.u_val i);
        hp_push_min f f.step_of_row.(c)
      done
    end
  done;
  if f.eta_n > f.eta_start.(k) then begin
    f.eta_start.(k + 1) <- f.eta_n;
    f.neta <- k + 1
  end;
  (* The stability test: in exact arithmetic the new diagonal is the
     pivot element times the old one. *)
  let expect = w.(r) *. FA.get f.diag s in
  if
    not
      (!dnew <> 0.0
      && Float.abs (!dnew -. expect) <= ft_tol *. Float.abs !dnew)
  then f.unstable <- true;
  for i = s0 to s0 + slen - 1 do
    ut_remove f f.step_of_row.(f.u_idx.(i)) s
  done;
  let c0 = f.ut_start.(s) in
  for i = c0 to c0 + f.ut_len.(s) - 1 do
    u_remove f f.ut_t.(i) r
  done;
  ensure_steps f (f.nsteps + 1);
  let ns = f.nsteps in
  f.nsteps <- ns + 1;
  f.p_row.(s) <- -1;
  f.p_row.(ns) <- r;
  f.step_of_row.(r) <- ns;
  FA.set f.diag ns !dnew;
  f.u_start.(ns) <- f.u_n;
  f.u_len.(ns) <- 0;
  f.u_cap.(ns) <- 0;
  ensure_ut f (f.ut_n + f.sp_n);
  f.ut_start.(ns) <- f.ut_n;
  for q = 0 to f.sp_n - 1 do
    let i = f.sp_idx.(q) in
    if i <> r && Float.abs sp.(i) > drop_tol then begin
      let t = f.step_of_row.(i) in
      f.ut_t.(f.ut_n) <- t;
      FA.set f.ut_v f.ut_n sp.(i);
      f.ut_n <- f.ut_n + 1;
      u_append f t r i
    end
  done;
  f.ut_len.(ns) <- f.ut_n - f.ut_start.(ns);
  let fill = f.eta_n - f.eta_start.(k) + f.ut_len.(ns) in
  f.upd_nnz <- f.upd_nnz + fill;
  f.update_nnz <- f.update_nnz + fill;
  f.nupd <- f.nupd + 1;
  f.updates <- f.updates + 1

(* ---------------- Markowitz LU refactorization -------------------- *)

let push_sc ws c =
  if not ws.in_sc.(c) then begin
    ws.in_sc.(c) <- true;
    ws.sc.(ws.nsc) <- c;
    ws.nsc <- ws.nsc + 1
  end

let push_sr ws r =
  if not ws.in_sr.(r) then begin
    ws.in_sr.(r) <- true;
    ws.sr.(ws.nsr) <- r;
    ws.nsr <- ws.nsr + 1
  end

let bkt_insert ws c =
  let k = ws.c_cnt.(c) in
  let h = ws.b_head.(k) in
  ws.b_next.(c) <- h;
  ws.b_prev.(c) <- -1;
  if h >= 0 then ws.b_prev.(h) <- c;
  ws.b_head.(k) <- c

let bkt_remove ws c =
  let k = ws.c_cnt.(c) in
  let p = ws.b_prev.(c) and n = ws.b_next.(c) in
  if p >= 0 then ws.b_next.(p) <- n else ws.b_head.(k) <- n;
  if n >= 0 then ws.b_prev.(n) <- p

(* A column count may transiently hit 0 (exact cancellation) and be
   revived by later fill-in; a column that stays at 0 is caught by the
   pivot search finding nothing. So 0 is not Singular here. *)
let dec_ccnt ws c =
  if ws.c_alive.(c) then begin
    bkt_remove ws c;
    let n = ws.c_cnt.(c) - 1 in
    ws.c_cnt.(c) <- n;
    bkt_insert ws c;
    if n = 1 then push_sc ws c
  end

let inc_ccnt ws c =
  bkt_remove ws c;
  let n = ws.c_cnt.(c) + 1 in
  ws.c_cnt.(c) <- n;
  bkt_insert ws c;
  if n = 1 then push_sc ws c

let find_in_row ws j c =
  let idx = ws.r_idx.(j) in
  let n = ws.r_len.(j) in
  let p = ref (-1) in
  let i = ref 0 in
  while !p < 0 && !i < n do
    if idx.(!i) = c then p := !i;
    incr i
  done;
  !p

(* Inlined so that [v], computed unboxed by the caller, is not boxed
   for the call: one load or fill-in entry would otherwise cost a
   boxed float. *)
let[@inline] push_row_entry ws j c v =
  let n = ws.r_len.(j) in
  if n >= Array.length ws.r_idx.(j) then begin
    let cap = max entry_cap0 (2 * n) in
    let bi = Array.make cap 0 and bv = Array.make cap 0.0 in
    Array.blit ws.r_idx.(j) 0 bi 0 n;
    Array.blit ws.r_val.(j) 0 bv 0 n;
    ws.r_idx.(j) <- bi;
    ws.r_val.(j) <- bv
  end;
  ws.r_idx.(j).(n) <- c;
  ws.r_val.(j).(n) <- v;
  ws.r_len.(j) <- n + 1

let push_col_row ws c r =
  let n = ws.c_len.(c) in
  if n >= ws.c_cap.(c) then begin
    let b = Array.make (max entry_cap0 (2 * n)) 0 in
    Array.blit ws.c_rows.(c) 0 b 0 n;
    ws.c_rows.(c) <- b;
    ws.c_cap.(c) <- Array.length b
  end;
  ws.c_rows.(c).(n) <- r;
  ws.c_len.(c) <- n + 1

(* Drop stale and duplicate candidate rows from column [c]'s list (the
   [wpos] map doubles as the dedup marker; cleared before return). *)
let compact_col ws c =
  let rows = ws.c_rows.(c) in
  let nw = ref 0 in
  for i = 0 to ws.c_len.(c) - 1 do
    let j = rows.(i) in
    if ws.r_alive.(j) && ws.wpos.(j) = 0 && find_in_row ws j c >= 0 then begin
      rows.(!nw) <- j;
      ws.wpos.(j) <- 1;
      incr nw
    end
  done;
  for i = 0 to !nw - 1 do
    ws.wpos.(rows.(i)) <- 0
  done;
  ws.c_len.(c) <- !nw

exception Found

(* Pivot search: fill-free singletons first, then the bounded
   Markowitz scan over the ascending-count column buckets with the
   relative-magnitude threshold test. Returns the row and leaves the
   column in [ws.piv_col] (no tuple per elimination step). *)
let pick_pivot ws m =
  let res_r = ref (-1) and res_c = ref (-1) in
  while !res_r < 0 do
    if ws.nsc > 0 then begin
      ws.nsc <- ws.nsc - 1;
      let c = ws.sc.(ws.nsc) in
      ws.in_sc.(c) <- false;
      if ws.c_alive.(c) && ws.c_cnt.(c) = 1 then begin
        compact_col ws c;
        if ws.c_len.(c) <> 1 then raise Singular;
        let j = ws.c_rows.(c).(0) in
        let p = find_in_row ws j c in
        if Float.abs ws.r_val.(j).(p) <= ztol then raise Singular;
        res_r := j;
        res_c := c
      end
    end
    else if ws.nsr > 0 then begin
      ws.nsr <- ws.nsr - 1;
      let j = ws.sr.(ws.nsr) in
      ws.in_sr.(j) <- false;
      if ws.r_alive.(j) && ws.r_len.(j) = 1 then begin
        let c = ws.r_idx.(j).(0) in
        if ws.c_alive.(c) then begin
          if Float.abs ws.r_val.(j).(0) <= ztol then raise Singular;
          res_r := j;
          res_c := c
        end
      end
    end
    else begin
      (* Markowitz over count buckets. *)
      let best_cost = ref max_int in
      let examined = ref 0 in
      (try
         for cnt = 2 to m do
           (* Rows in the bump have count >= 2, so bucket [cnt + 1]
              cannot beat a found candidate of cost <= cnt. *)
           if !res_c >= 0 && !best_cost <= cnt then raise Found;
           let c = ref ws.b_head.(cnt) in
           while !c >= 0 do
             let next = ws.b_next.(!c) in
             compact_col ws !c;
             let len = ws.c_len.(!c) in
             if len <> ws.c_cnt.(!c) then raise Singular;
             let colmax = ref 0.0 in
             for i = 0 to len - 1 do
               let j = ws.c_rows.(!c).(i) in
               let v = Float.abs ws.r_val.(j).(find_in_row ws j !c) in
               ws.cbuf_v.(i) <- v;
               if v > !colmax then colmax := v
             done;
             if !colmax <= ztol then raise Singular;
             let thresh = Float.max (tau *. !colmax) ztol in
             for i = 0 to len - 1 do
               if ws.cbuf_v.(i) >= thresh then begin
                 let j = ws.c_rows.(!c).(i) in
                 let cost = (ws.r_len.(j) - 1) * (cnt - 1) in
                 if cost < !best_cost then begin
                   best_cost := cost;
                   res_r := j;
                   res_c := !c
                 end
               end
             done;
             incr examined;
             if !examined >= markowitz_scan && !res_c >= 0 then raise Found;
             c := next
           done
         done
       with Found -> ());
      if !res_c < 0 then raise Singular
    end
  done;
  ws.piv_col <- !res_c;
  !res_r

let refactor_lu f ~nnz ~load ~row_of =
  let ws = get_ws f in
  let m = f.m in
  clear_updates f;
  f.nl <- 0;
  f.nsteps <- 0;
  f.l_n <- 0;
  f.u_n <- 0;
  (* Reset the working matrix. *)
  let maxnnz = ref m in
  for slot = 0 to m - 1 do
    let k = nnz slot in
    if k > !maxnnz then maxnnz := k
  done;
  ensure_cbuf ws !maxnnz;
  Array.fill ws.r_len 0 m 0;
  Array.fill ws.c_len 0 m 0;
  Array.fill ws.c_cnt 0 m 0;
  Array.fill ws.r_alive 0 m true;
  Array.fill ws.c_alive 0 m true;
  Array.fill ws.wpos 0 m 0;
  Array.fill ws.b_head 0 (m + 2) (-1);
  Array.fill ws.in_sc 0 m false;
  Array.fill ws.in_sr 0 m false;
  ws.nsc <- 0;
  ws.nsr <- 0;
  let bnnz = ref 0 in
  (try
     (* Load: columns scattered into the dynamic rows (duplicate rows
        accumulated, exact zeros skipped). *)
     for slot = 0 to m - 1 do
       let cnt = load slot ws.cbuf_i ws.cbuf_v in
       let kept = ref 0 in
       for p = 0 to cnt - 1 do
         let r = ws.cbuf_i.(p) in
         if ws.wpos.(r) = 0 then begin
           ws.cbuf_i.(!kept) <- r;
           ws.cbuf_v.(!kept) <- ws.cbuf_v.(p);
           incr kept;
           ws.wpos.(r) <- !kept
         end
         else begin
           let q = ws.wpos.(r) - 1 in
           ws.cbuf_v.(q) <- ws.cbuf_v.(q) +. ws.cbuf_v.(p)
         end
       done;
       for p = 0 to !kept - 1 do
         ws.wpos.(ws.cbuf_i.(p)) <- 0
       done;
       for p = 0 to !kept - 1 do
         let v = ws.cbuf_v.(p) in
         if v <> 0.0 then begin
           let r = ws.cbuf_i.(p) in
           push_row_entry ws r slot v;
           push_col_row ws slot r;
           ws.c_cnt.(slot) <- ws.c_cnt.(slot) + 1;
           incr bnnz
         end
       done
     done;
     for c = 0 to m - 1 do
       if ws.c_cnt.(c) = 0 then raise Singular;
       bkt_insert ws c;
       if ws.c_cnt.(c) = 1 then push_sc ws c
     done;
     for r = 0 to m - 1 do
       if ws.r_len.(r) = 0 then raise Singular;
       if ws.r_len.(r) = 1 then push_sr ws r
     done;
     (* Elimination. *)
     for t = 0 to m - 1 do
       let r = pick_pivot ws m in
       let c = ws.piv_col in
       compact_col ws c;
       let pp = find_in_row ws r c in
       let pv = ws.r_val.(r).(pp) in
       (* Retire the pivot column and row from the active submatrix. *)
       bkt_remove ws c;
       ws.c_alive.(c) <- false;
       ws.r_alive.(r) <- false;
       (* Pivot row (minus the pivot itself) -> cbuf, and the U row. *)
       let pr = ref 0 in
       for i = 0 to ws.r_len.(r) - 1 do
         let cc = ws.r_idx.(r).(i) in
         if cc <> c then begin
           ws.cbuf_i.(!pr) <- cc;
           ws.cbuf_v.(!pr) <- ws.r_val.(r).(i);
           incr pr
         end
       done;
       f.p_row.(t) <- r;
       FA.set f.diag t pv;
       ws.step_of_col.(c) <- t;
       ensure_u f (f.u_n + !pr);
       f.u_start.(t) <- f.u_n;
       f.u_len.(t) <- !pr;
       f.u_cap.(t) <- !pr;
       for q = 0 to !pr - 1 do
         (* Stored as column slots; remapped to pivot rows below. *)
         f.u_idx.(f.u_n + q) <- ws.cbuf_i.(q);
         FA.set f.u_val (f.u_n + q) ws.cbuf_v.(q)
       done;
       f.u_n <- f.u_n + !pr;
       for q = 0 to !pr - 1 do
         dec_ccnt ws ws.cbuf_i.(q)
       done;
       (* Eliminate the pivot column from every other active row. *)
       f.l_start.(t) <- f.l_n;
       for ci = 0 to ws.c_len.(c) - 1 do
         let j = ws.c_rows.(c).(ci) in
         if j <> r then begin
           let pj = find_in_row ws j c in
           let l = ws.r_val.(j).(pj) /. pv in
           (let n = ws.r_len.(j) - 1 in
            ws.r_idx.(j).(pj) <- ws.r_idx.(j).(n);
            ws.r_val.(j).(pj) <- ws.r_val.(j).(n);
            ws.r_len.(j) <- n);
           if l <> 0.0 then begin
             (* row_j -= l * pivot_row over the remaining columns. *)
             for i = 0 to ws.r_len.(j) - 1 do
               ws.wpos.(ws.r_idx.(j).(i)) <- i + 1
             done;
             for q = 0 to !pr - 1 do
               let cc = ws.cbuf_i.(q) in
               let pos = ws.wpos.(cc) in
               if pos > 0 then
                 ws.r_val.(j).(pos - 1) <-
                   ws.r_val.(j).(pos - 1) -. (l *. ws.cbuf_v.(q))
               else begin
                 let nv = -.l *. ws.cbuf_v.(q) in
                 if Float.abs nv > drop_tol then begin
                   push_row_entry ws j cc nv;
                   ws.wpos.(cc) <- ws.r_len.(j);
                   inc_ccnt ws cc;
                   push_col_row ws cc j
                 end
               end
             done;
             (* One cleanup pass: clear the scatter map and drop the
                entries that cancelled below the tolerance. *)
             let n = ref ws.r_len.(j) in
             let i = ref 0 in
             while !i < !n do
               let cc = ws.r_idx.(j).(!i) in
               ws.wpos.(cc) <- 0;
               if Float.abs ws.r_val.(j).(!i) <= drop_tol then begin
                 decr n;
                 ws.r_idx.(j).(!i) <- ws.r_idx.(j).(!n);
                 ws.r_val.(j).(!i) <- ws.r_val.(j).(!n);
                 dec_ccnt ws cc
               end
               else incr i
             done;
             ws.r_len.(j) <- !n;
             if !n = 0 then raise Singular;
             if !n = 1 then push_sr ws j;
             ensure_l f (f.l_n + 1);
             f.l_idx.(f.l_n) <- j;
             FA.set f.l_val f.l_n l;
             f.l_n <- f.l_n + 1
           end
         end
       done;
       f.l_start.(t + 1) <- f.l_n;
       ws.c_len.(c) <- 0
     done;
     (* Remap U-row entries from column slots to their pivot rows. *)
     for i = 0 to f.u_n - 1 do
       f.u_idx.(i) <- f.p_row.(ws.step_of_col.(f.u_idx.(i)))
     done;
     for slot = 0 to m - 1 do
       row_of.(slot) <- f.p_row.(ws.step_of_col.(slot))
     done;
     for t = 0 to m - 1 do
       let r = f.p_row.(t) in
       f.step_of_row.(r) <- t;
       f.l_row.(t) <- r;
       f.l_step.(r) <- t
     done;
     (* Column view for the pattern-driven back substitution and the
        updates: every entry bucketed by the step it references
        (counting sort). *)
     ensure_ut f f.u_n;
     Array.fill ws.ut_cnt 0 m 0;
     for i = 0 to f.u_n - 1 do
       let s = f.step_of_row.(f.u_idx.(i)) in
       ws.ut_cnt.(s) <- ws.ut_cnt.(s) + 1
     done;
     let next = ref 0 in
     for s = 0 to m - 1 do
       f.ut_start.(s) <- !next;
       f.ut_len.(s) <- ws.ut_cnt.(s);
       ws.ut_pos.(s) <- !next;
       next := !next + ws.ut_cnt.(s)
     done;
     f.ut_n <- !next;
     for t = 0 to m - 1 do
       for i = f.u_start.(t) to f.u_start.(t) + f.u_len.(t) - 1 do
         let s = f.step_of_row.(f.u_idx.(i)) in
         let pos = ws.ut_pos.(s) in
         ws.ut_pos.(s) <- pos + 1;
         f.ut_t.(pos) <- t;
         FA.set f.ut_v pos (FA.get f.u_val i)
       done
     done;
     f.nl <- m;
     f.nsteps <- m
   with e ->
     Array.fill ws.wpos 0 m 0;
     reset_identity f;
     raise e);
  f.base_nnz <- f.l_n + f.u_n + m;
  f.basis_nnz <- !bnnz

let refactorize f ~nnz ~load ~row_of =
  let t0 = Timer.start () in
  if f.m > 0 then refactor_lu f ~nnz ~load ~row_of else clear_updates f;
  f.refactorizations <- f.refactorizations + 1;
  f.factor_s <- f.factor_s +. Timer.elapsed_s t0
