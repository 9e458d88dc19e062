type cmp = Le | Ge | Eq

type row = { terms : (int * float) list; cmp : cmp; rhs : float }

type csc = {
  c_nv : int;
  c_nr : int;
  col_ptr : int array;
  row_ind : int array;
  values : float array;
  row_cmp : cmp array;
  row_rhs : float array;
}

(* Rows live in growable flat arrays, in insertion order: row [i]'s
   terms are [r_var.(p)], [r_coef.(p)] for [p] in
   [r_start.(i) .. r_start.(i+1) - 1]. Only the first [nr] rows and
   [nnz] terms are meaningful; the arrays may be longer. *)
type t = {
  mutable objs : float array;
  mutable lowers : float array;
  mutable uppers : float option array;
  mutable names : string array;
  mutable nv : int;
  mutable r_start : int array; (* nr + 1 offsets *)
  mutable r_var : int array;
  mutable r_coef : float array;
  mutable r_cmp : cmp array;
  mutable r_rhs : float array;
  mutable nr : int;
  mutable nnz : int;
  (* Set by [clone] on both sides: the row arrays are shared, so the
     next [add_row] on either side copies them first. *)
  mutable rows_shared : bool;
  (* Cached sparse column view of the rows; invalidated by any
     structural change (add_var / add_row). Bound or objective edits
     keep it valid, which is what lets branch-and-bound clones share
     one CSC across the whole tree. *)
  mutable csc_cache : csc option;
}

let create () =
  {
    objs = [||];
    lowers = [||];
    uppers = [||];
    names = [||];
    nv = 0;
    r_start = [| 0 |];
    r_var = [||];
    r_coef = [||];
    r_cmp = [||];
    r_rhs = [||];
    nr = 0;
    nnz = 0;
    rows_shared = false;
    csc_cache = None;
  }

let grow t =
  let cap = Array.length t.objs in
  if t.nv >= cap then begin
    let ncap = max 16 (2 * cap) in
    let objs = Array.make ncap 0.0 in
    let lowers = Array.make ncap 0.0 in
    let uppers = Array.make ncap None in
    let names = Array.make ncap "" in
    Array.blit t.objs 0 objs 0 t.nv;
    Array.blit t.lowers 0 lowers 0 t.nv;
    Array.blit t.uppers 0 uppers 0 t.nv;
    Array.blit t.names 0 names 0 t.nv;
    t.objs <- objs;
    t.lowers <- lowers;
    t.uppers <- uppers;
    t.names <- names
  end

let add_var t ?name ?upper ~obj () =
  grow t;
  let idx = t.nv in
  t.objs.(idx) <- obj;
  t.lowers.(idx) <- 0.0;
  t.uppers.(idx) <- upper;
  t.names.(idx) <- (match name with Some n -> n | None -> "");
  t.nv <- t.nv + 1;
  t.csc_cache <- None;
  idx

(* [a] with room for [needed] cells: the same array when it has it,
   else a copy into one at least twice as long. *)
let room a needed fill =
  let cap = Array.length a in
  if needed <= cap then a
  else begin
    let b = Array.make (max needed (max 16 (2 * cap))) fill in
    Array.blit a 0 b 0 cap;
    b
  end

(* Term count of a row, rejecting unknown variables before anything is
   written. ([row_length] and [write_terms] are top-level so that a
   row costs no closure.) *)
let rec row_length nv len = function
  | [] -> len
  | (v, _) :: rest ->
      if v < 0 || v >= nv then invalid_arg "Problem.add_row: unknown variable";
      row_length nv (len + 1) rest

let rec write_terms r_var r_coef p = function
  | [] -> ()
  | (v, c) :: rest ->
      r_var.(p) <- v;
      r_coef.(p) <- c;
      write_terms r_var r_coef (p + 1) rest

let add_row t terms cmp rhs =
  let len = row_length t.nv 0 terms in
  if t.rows_shared then begin
    (* Copy on write: the clone partner keeps the arrays. *)
    t.r_start <- Array.sub t.r_start 0 (t.nr + 1);
    t.r_var <- Array.sub t.r_var 0 t.nnz;
    t.r_coef <- Array.sub t.r_coef 0 t.nnz;
    t.r_cmp <- Array.sub t.r_cmp 0 t.nr;
    t.r_rhs <- Array.sub t.r_rhs 0 t.nr;
    t.rows_shared <- false
  end;
  let i = t.nr and p0 = t.nnz in
  t.r_start <- room t.r_start (i + 2) 0;
  t.r_cmp <- room t.r_cmp (i + 1) Le;
  t.r_rhs <- room t.r_rhs (i + 1) 0.0;
  t.r_var <- room t.r_var (p0 + len) 0;
  t.r_coef <- room t.r_coef (p0 + len) 0.0;
  write_terms t.r_var t.r_coef p0 terms;
  t.r_cmp.(i) <- cmp;
  t.r_rhs.(i) <- rhs;
  t.r_start.(i + 1) <- p0 + len;
  t.nr <- i + 1;
  t.nnz <- p0 + len;
  t.csc_cache <- None

let clone t =
  t.rows_shared <- true;
  {
    t with
    objs = Array.copy t.objs;
    lowers = Array.copy t.lowers;
    uppers = Array.copy t.uppers;
    names = Array.copy t.names;
  }

let set_upper t v upper =
  if v < 0 || v >= t.nv then invalid_arg "Problem.set_upper: unknown variable";
  t.uppers.(v) <- upper

let set_lower t v lower =
  if v < 0 || v >= t.nv then invalid_arg "Problem.set_lower: unknown variable";
  if lower < 0.0 then invalid_arg "Problem.set_lower: negative lower bound";
  t.lowers.(v) <- lower

let set_obj t v obj =
  if v < 0 || v >= t.nv then invalid_arg "Problem.set_obj: unknown variable";
  t.objs.(v) <- obj

(* Bulk bound readout into caller scratch: the solver build path reads
   every bound once, and going through [upper_bound]'s option would
   allocate per variable. *)
let bounds_into t ~lo ~up =
  for i = 0 to t.nv - 1 do
    lo.(i) <- t.lowers.(i);
    up.(i) <- (match t.uppers.(i) with Some u -> u | None -> infinity)
  done

let num_vars t = t.nv
let num_rows t = t.nr
let num_nonzeros t = t.nnz
let objective t = Array.sub t.objs 0 t.nv
let upper_bound t i = t.uppers.(i)
let lower_bound t i = t.lowers.(i)

let var_name t i =
  if t.names.(i) = "" then Printf.sprintf "v%d" i else t.names.(i)

let rows t =
  Array.init t.nr (fun i ->
      let terms = ref [] in
      for p = t.r_start.(i + 1) - 1 downto t.r_start.(i) do
        terms := (t.r_var.(p), t.r_coef.(p)) :: !terms
      done;
      { terms = !terms; cmp = t.r_cmp.(i); rhs = t.r_rhs.(i) })

(* Counting-sort transpose of the flat rows: rows in insertion order,
   a row's terms in its own order, duplicates kept (the factor load
   sums them). *)
let build_csc t =
  let nv = t.nv and nr = t.nr and nnz = t.nnz in
  let col_ptr = Array.make (nv + 1) 0 in
  for p = 0 to nnz - 1 do
    let v = t.r_var.(p) in
    col_ptr.(v + 1) <- col_ptr.(v + 1) + 1
  done;
  for v = 0 to nv - 1 do
    col_ptr.(v + 1) <- col_ptr.(v) + col_ptr.(v + 1)
  done;
  let row_ind = Array.make (max 1 nnz) 0 in
  let values = Array.make (max 1 nnz) 0.0 in
  let cursor = Array.copy col_ptr in
  let row_cmp = Array.make (max 1 nr) Le in
  let row_rhs = Array.make (max 1 nr) 0.0 in
  Array.blit t.r_cmp 0 row_cmp 0 nr;
  Array.blit t.r_rhs 0 row_rhs 0 nr;
  for i = 0 to nr - 1 do
    for p = t.r_start.(i) to t.r_start.(i + 1) - 1 do
      let v = t.r_var.(p) in
      let q = cursor.(v) in
      row_ind.(q) <- i;
      values.(q) <- t.r_coef.(p);
      cursor.(v) <- q + 1
    done
  done;
  { c_nv = nv; c_nr = nr; col_ptr; row_ind; values; row_cmp; row_rhs }

let csc t =
  match t.csc_cache with
  | Some c -> c
  | None ->
      let c = build_csc t in
      t.csc_cache <- Some c;
      c

let eval_objective t x =
  let acc = ref 0.0 in
  for i = 0 to t.nv - 1 do
    acc := !acc +. (t.objs.(i) *. x.(i))
  done;
  !acc

let row_value t i x =
  let acc = ref 0.0 in
  for p = t.r_start.(i) to t.r_start.(i + 1) - 1 do
    acc := !acc +. (t.r_coef.(p) *. x.(t.r_var.(p)))
  done;
  !acc

let check_feasible ?(eps = 1e-6) t x =
  let bounds_ok = ref true in
  for i = 0 to t.nv - 1 do
    if x.(i) < t.lowers.(i) -. eps then bounds_ok := false;
    (match t.uppers.(i) with
    | Some u when x.(i) > u +. eps -> bounds_ok := false
    | Some _ | None -> ())
  done;
  let rows_ok = ref true in
  for i = 0 to t.nr - 1 do
    let v = row_value t i x and rhs = t.r_rhs.(i) in
    let ok =
      match t.r_cmp.(i) with
      | Le -> v <= rhs +. eps
      | Ge -> v >= rhs -. eps
      | Eq -> Float.abs (v -. rhs) <= eps
    in
    if not ok then rows_ok := false
  done;
  !bounds_ok && !rows_ok

let pp ppf t =
  Format.fprintf ppf "@[<v>max ";
  for i = 0 to t.nv - 1 do
    if t.objs.(i) <> 0.0 then
      Format.fprintf ppf "%+g %s " t.objs.(i) (var_name t i)
  done;
  Format.fprintf ppf "@,subject to:@,";
  for i = 0 to t.nr - 1 do
    for p = t.r_start.(i) to t.r_start.(i + 1) - 1 do
      Format.fprintf ppf "%+g %s " t.r_coef.(p) (var_name t t.r_var.(p))
    done;
    let op = match t.r_cmp.(i) with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
    Format.fprintf ppf "%s %g@," op t.r_rhs.(i)
  done;
  for i = 0 to t.nv - 1 do
    match (t.lowers.(i), t.uppers.(i)) with
    | l, Some u -> Format.fprintf ppf "%g <= %s <= %g@," l (var_name t i) u
    | l, None when l > 0.0 -> Format.fprintf ppf "%s >= %g@," (var_name t i) l
    | _, None -> ()
  done;
  Format.fprintf ppf "@]"
