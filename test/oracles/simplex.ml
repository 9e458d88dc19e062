module Problem = Svgic_lp.Problem

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded

and solution = { x : float array; objective : float; pivots : int }

let eps = 1e-9

(* Internal normalized row: terms with rhs already made non-negative. *)
type norm_row = { nterms : (int * float) list; ncmp : Problem.cmp; nrhs : float }

let normalize_rows problem =
  let upper_rows =
    List.concat
      (List.init (Problem.num_vars problem) (fun v ->
           let uppers =
             match Problem.upper_bound problem v with
             | None -> []
             | Some u -> [ { nterms = [ (v, 1.0) ]; ncmp = Problem.Le; nrhs = u } ]
           in
           let l = Problem.lower_bound problem v in
           if l > 0.0 then
             { nterms = [ (v, 1.0) ]; ncmp = Problem.Ge; nrhs = l } :: uppers
           else uppers))
  in
  let base_rows =
    Array.to_list (Problem.rows problem)
    |> List.map (fun (row : Problem.row) ->
           if row.rhs >= 0.0 then
             { nterms = row.terms; ncmp = row.cmp; nrhs = row.rhs }
           else
             let flipped =
               match row.cmp with
               | Problem.Le -> Problem.Ge
               | Problem.Ge -> Problem.Le
               | Problem.Eq -> Problem.Eq
             in
             {
               nterms = List.map (fun (v, c) -> (v, -.c)) row.terms;
               ncmp = flipped;
               nrhs = -.row.rhs;
             })
  in
  Array.of_list (base_rows @ upper_rows)

type tableau = {
  body : float array array; (* nrows x (ncols + 1); last column is rhs *)
  obj : float array; (* reduced-cost row, length ncols + 1 (last = -z) *)
  basis : int array; (* basic variable per row *)
  ncols : int;
  nrows : int;
  nstruct : int; (* structural variable count *)
  artificial_start : int; (* first artificial column, or ncols if none *)
}

let pivot t ~row ~col =
  let piv = t.body.(row).(col) in
  let inv = 1.0 /. piv in
  let prow = t.body.(row) in
  for j = 0 to t.ncols do
    prow.(j) <- prow.(j) *. inv
  done;
  for i = 0 to t.nrows - 1 do
    if i <> row then begin
      let factor = t.body.(i).(col) in
      (* Rows with a negligible entry in the pivot column are already
         eliminated up to the tolerance used everywhere else; skipping
         them avoids O(ncols) work per near-zero row on dense
         tableaus. *)
      if Float.abs factor > eps then begin
        let irow = t.body.(i) in
        for j = 0 to t.ncols do
          irow.(j) <- irow.(j) -. (factor *. prow.(j))
        done
      end
    end
  done;
  let factor = t.obj.(col) in
  if Float.abs factor > eps then
    for j = 0 to t.ncols do
      t.obj.(j) <- t.obj.(j) -. (factor *. prow.(j))
    done;
  t.basis.(row) <- col

(* Entering column: Dantzig (most positive reduced cost) or Bland
   (lowest index with positive reduced cost). Artificial columns are
   excluded once [limit] is set below [ncols]. *)
let entering t ~bland ~limit =
  if bland then begin
    let found = ref (-1) in
    let j = ref 0 in
    while !found < 0 && !j < limit do
      if t.obj.(!j) > eps then found := !j;
      incr j
    done;
    !found
  end
  else begin
    let best = ref (-1) and best_val = ref eps in
    for j = 0 to limit - 1 do
      if t.obj.(j) > !best_val then begin
        best := j;
        best_val := t.obj.(j)
      end
    done;
    !best
  end

(* Leaving row by the ratio test; ties broken toward the lowest basis
   index (lexicographic flavour that combines with Bland's rule). *)
let leaving t ~col =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.nrows - 1 do
    let a = t.body.(i).(col) in
    if a > eps then begin
      let ratio = t.body.(i).(t.ncols) /. a in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps && !best >= 0 && t.basis.(i) < t.basis.(!best))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

exception Unbounded_exn
exception Pivot_limit

let optimize t ~limit ~max_pivots pivots =
  let stall = ref 0 in
  let last_obj = ref t.obj.(t.ncols) in
  let continue = ref true in
  while !continue do
    let bland = !stall > 2 * (t.nrows + t.ncols) in
    let col = entering t ~bland ~limit in
    if col < 0 then continue := false
    else begin
      let row = leaving t ~col in
      if row < 0 then raise Unbounded_exn;
      pivot t ~row ~col;
      incr pivots;
      if !pivots > max_pivots then raise Pivot_limit;
      let obj_now = t.obj.(t.ncols) in
      if obj_now < !last_obj -. eps then begin
        stall := 0;
        last_obj := obj_now
      end
      else incr stall
    end
  done

let build problem =
  let nstruct = Problem.num_vars problem in
  let rows = normalize_rows problem in
  let nrows = Array.length rows in
  (* Count auxiliary columns. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun r ->
      match r.ncmp with
      | Problem.Le -> incr n_slack
      | Problem.Ge ->
          incr n_slack;
          incr n_art
      | Problem.Eq -> incr n_art)
    rows;
  let slack_start = nstruct in
  let art_start = nstruct + !n_slack in
  let ncols = art_start + !n_art in
  let body = Array.init nrows (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make nrows (-1) in
  let next_slack = ref slack_start and next_art = ref art_start in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (v, c) -> body.(i).(v) <- body.(i).(v) +. c)
        r.nterms;
      body.(i).(ncols) <- r.nrhs;
      (match r.ncmp with
      | Problem.Le ->
          body.(i).(!next_slack) <- 1.0;
          basis.(i) <- !next_slack;
          incr next_slack
      | Problem.Ge ->
          body.(i).(!next_slack) <- -1.0;
          incr next_slack;
          body.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          incr next_art
      | Problem.Eq ->
          body.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          incr next_art))
    rows;
  {
    body;
    obj = Array.make (ncols + 1) 0.0;
    basis;
    ncols;
    nrows;
    nstruct;
    artificial_start = art_start;
  }

(* Sets the reduced-cost row for objective coefficients [c] (length
   ncols), eliminating contributions of the current basis. *)
let install_objective t c =
  Array.fill t.obj 0 (t.ncols + 1) 0.0;
  Array.blit c 0 t.obj 0 (Array.length c);
  for i = 0 to t.nrows - 1 do
    let b = t.basis.(i) in
    let coeff = t.obj.(b) in
    if Float.abs coeff > 0.0 then begin
      let row = t.body.(i) in
      for j = 0 to t.ncols do
        t.obj.(j) <- t.obj.(j) -. (coeff *. row.(j))
      done
    end
  done

let solve ?(max_pivots = 200_000) problem =
  let t = build problem in
  let pivots = ref 0 in
  let has_artificials = t.artificial_start < t.ncols in
  try
    (* Phase 1: maximize the negated sum of artificials. *)
    if has_artificials then begin
      let c = Array.make t.ncols 0.0 in
      for j = t.artificial_start to t.ncols - 1 do
        c.(j) <- -1.0
      done;
      install_objective t c;
      optimize t ~limit:t.ncols ~max_pivots pivots;
      (* Objective row's rhs entry holds -z for the phase-1 objective;
         feasible iff the artificial sum is ~0. *)
      let art_sum = ref 0.0 in
      for i = 0 to t.nrows - 1 do
        if t.basis.(i) >= t.artificial_start then
          art_sum := !art_sum +. t.body.(i).(t.ncols)
      done;
      if !art_sum > 1e-6 then raise Exit;
      (* Pivot basic artificials (at value 0) out where possible. *)
      for i = 0 to t.nrows - 1 do
        if t.basis.(i) >= t.artificial_start then begin
          let col = ref (-1) in
          let j = ref 0 in
          while !col < 0 && !j < t.artificial_start do
            if Float.abs t.body.(i).(!j) > 1e-7 then col := !j;
            incr j
          done;
          if !col >= 0 then begin
            pivot t ~row:i ~col:!col;
            incr pivots
          end
        end
      done
    end;
    (* Phase 2: the real objective over structural columns only. *)
    let c = Array.make t.ncols 0.0 in
    let original = Problem.objective problem in
    Array.blit original 0 c 0 t.nstruct;
    install_objective t c;
    optimize t ~limit:t.artificial_start ~max_pivots pivots;
    let x = Array.make t.nstruct 0.0 in
    for i = 0 to t.nrows - 1 do
      if t.basis.(i) < t.nstruct then x.(t.basis.(i)) <- t.body.(i).(t.ncols)
    done;
    Optimal { x; objective = Problem.eval_objective problem x; pivots = !pivots }
  with
  | Exit -> Infeasible
  | Unbounded_exn -> Unbounded
  | Pivot_limit ->
      failwith
        (Printf.sprintf "Simplex.solve: pivot limit exceeded (%d rows, %d cols)"
           t.nrows t.ncols)
