(* The Factor module against a dense linear-algebra oracle: the
   Markowitz LU must solve B z = w and B^T y = c to tight tolerance on
   random unit-heavy bases, absorb column replacements through
   Forrest-Tomlin updates (over long chains, from the identity and from
   a fresh factorization, on random bases and on an LP_SIMP basis),
   agree with a fresh factorization after any update sequence, refuse
   a near-singular replacement, update without allocating, and detect
   singular column sets. *)

module Factor = Svgic_lp.Factor
module Rng = Svgic_util.Rng

let tol = 1e-8

(* ------------------ dense oracle ---------------------------------- *)

(* Solve A x = b by dense GE with partial pivoting. A is row-major
   m*m; both are copied. Returns None when numerically singular. *)
let dense_solve a0 b0 =
  let m = Array.length b0 in
  let a = Array.map Array.copy a0 in
  let b = Array.copy b0 in
  let piv = Array.init m (fun i -> i) in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let best = ref k and mag = ref (Float.abs a.(piv.(k)).(k)) in
       for i = k + 1 to m - 1 do
         let v = Float.abs a.(piv.(i)).(k) in
         if v > !mag then begin
           best := i;
           mag := v
         end
       done;
       if !mag < 1e-11 then begin
         ok := false;
         raise Exit
       end;
       let t = piv.(k) in
       piv.(k) <- piv.(!best);
       piv.(!best) <- t;
       let pk = piv.(k) in
       for i = k + 1 to m - 1 do
         let r = piv.(i) in
         let l = a.(r).(k) /. a.(pk).(k) in
         if l <> 0.0 then begin
           a.(r).(k) <- 0.0;
           for j = k + 1 to m - 1 do
             a.(r).(j) <- a.(r).(j) -. (l *. a.(pk).(j))
           done;
           b.(r) <- b.(r) -. (l *. b.(pk))
         end
       done
     done
   with Exit -> ());
  if not !ok then None
  else begin
    let x = Array.make m 0.0 in
    for k = m - 1 downto 0 do
      let r = piv.(k) in
      let acc = ref b.(r) in
      for j = k + 1 to m - 1 do
        acc := !acc -. (a.(r).(j) *. x.(j))
      done;
      x.(k) <- !acc /. a.(r).(k)
    done;
    Some x
  end

let transpose a =
  let m = Array.length a in
  Array.init m (fun i -> Array.init m (fun j -> a.(j).(i)))

(* Random unit-heavy basis: identity plus sprinkled off-diagonal
   entries (mimicking LP bases: many logicals, sparse structurals),
   with a few dense-ish columns. Always invertible in practice thanks
   to the dominant diagonal. *)
let random_basis rng m =
  let a = Array.init m (fun i -> Array.init m (fun j -> if i = j then 1.0 +. Rng.float rng 2.0 else 0.0)) in
  let extras = m * 2 in
  for _ = 1 to extras do
    let i = Rng.int rng m and j = Rng.int rng m in
    if i <> j then a.(i).(j) <- Rng.float rng 4.0 -. 2.0
  done;
  (* a couple of unit columns, as logicals would be *)
  for _ = 1 to max 1 (m / 4) do
    let j = Rng.int rng m in
    for i = 0 to m - 1 do
      a.(i).(j) <- (if i = j then 1.0 else 0.0)
    done
  done;
  a

(* Hook a column-major view of [a] to the refactorize callbacks. *)
let refactor_dense f a row_of =
  let m = Array.length a in
  Factor.refactorize f
    ~nnz:(fun _ -> m)
    ~load:(fun slot idx vals ->
      let n = ref 0 in
      for i = 0 to m - 1 do
        if a.(i).(slot) <> 0.0 then begin
          idx.(!n) <- i;
          vals.(!n) <- a.(i).(slot);
          incr n
        end
      done;
      !n)
    ~row_of

let max_abs_diff x y =
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. y.(i)))) x;
  !d

let check_solves ~msg a =
  let m = Array.length a in
  let f = Factor.create ~m in
  let row_of = Array.make m 0 in
  refactor_dense f a row_of;
  (* row_of must be a permutation *)
  let seen = Array.make m false in
  Array.iter
    (fun r ->
      Alcotest.(check bool) (msg ^ ": row_of in range") true (r >= 0 && r < m);
      Alcotest.(check bool) (msg ^ ": row_of injective") false seen.(r);
      seen.(r) <- true)
    row_of;
  let rng = Rng.create 99 in
  for _ = 1 to 3 do
    let b = Array.init m (fun _ -> Rng.float rng 2.0 -. 1.0) in
    (* FTRAN solves in column-slot space: B z = b where column order
       is the slot order, answer permuted by row_of. The factor works
       on B directly, so compare against the dense solve of B. *)
    let w = Array.copy b in
    Factor.ftran f w;
    (match dense_solve a b with
    | None -> Alcotest.fail (msg ^ ": oracle says singular")
    | Some x ->
        (* w holds the solution scattered by basis position: the
           coefficient of column [slot] lives at w.(row_of.(slot)). *)
        let got = Array.make m 0.0 in
        Array.iteri (fun slot r -> got.(slot) <- w.(r)) row_of;
        Alcotest.(check bool)
          (msg ^ ": ftran matches dense solve")
          true
          (max_abs_diff got x < tol));
    let c = Array.init m (fun _ -> Rng.float rng 2.0 -. 1.0) in
    (* BTRAN solves B^T y = c' where c' is c in basis-position order:
       position r carries the cost of the column pivoted to row r. *)
    let cpos = Array.make m 0.0 in
    Array.iteri (fun slot r -> cpos.(r) <- c.(slot)) row_of;
    let y = Array.copy cpos in
    Factor.btran f y;
    (match dense_solve (transpose a) c with
    | None -> Alcotest.fail (msg ^ ": oracle says singular (T)")
    | Some x ->
        Alcotest.(check bool)
          (msg ^ ": btran matches dense solve")
          true
          (max_abs_diff y x < tol))
  done

let test_oracle_lu () =
  let rng = Rng.create 42 in
  for case = 1 to 40 do
    let m = 1 + Rng.int rng 24 in
    let a = random_basis rng m in
    check_solves ~msg:(Printf.sprintf "lu case %d (m=%d)" case m) a
  done

(* ------------------ updates vs a fresh factorization ------------- *)

(* Replace random columns one at a time through Factor.update (after an
   ftran_pattern of the entering column with the full pattern
   [0 .. m-1]) and compare every FTRAN against a freshly refactorized
   twin. *)
let test_updates () =
  let rng = Rng.create 4242 in
  for case = 1 to 12 do
    let m = 4 + Rng.int rng 16 in
    let a = random_basis rng m in
    let f = Factor.create ~m in
    let row_of = Array.make m 0 in
    refactor_dense f a row_of;
    for step = 1 to 8 do
      (* new column replacing a random slot *)
      let slot = Rng.int rng m in
      let col = Array.make m 0.0 in
      for i = 0 to m - 1 do
        if Rng.float rng 1.0 < 0.4 then col.(i) <- Rng.float rng 4.0 -. 2.0
      done;
      col.(slot) <- col.(slot) +. 2.0;
      (* keep it invertible *)
      let w = Array.copy col in
      ignore (Factor.ftran_pattern f w (Array.init m Fun.id) m : int);
      let r = row_of.(slot) in
      if Float.abs w.(r) > 1e-6 then begin
        Factor.update f ~pivot_row:r w;
        for i = 0 to m - 1 do
          a.(i).(slot) <- col.(i)
        done;
        (* twin: fresh factorization of the updated basis *)
        let g = Factor.create ~m in
        let row_of_g = Array.make m 0 in
        refactor_dense g a row_of_g;
        let b = Array.init m (fun _ -> Rng.float rng 2.0 -. 1.0) in
        let wu = Array.copy b and wf = Array.copy b in
        Factor.ftran f wu;
        Factor.ftran g wf;
        let got_u = Array.make m 0.0 and got_f = Array.make m 0.0 in
        Array.iteri (fun s r -> got_u.(s) <- wu.(r)) row_of;
        Array.iteri (fun s r -> got_f.(s) <- wf.(r)) row_of_g;
        Alcotest.(check bool)
          (Printf.sprintf "update case %d step %d: updated = fresh" case step)
          true
          (max_abs_diff got_u got_f < 1e-6)
      end
    done;
    Alcotest.(check bool) "updates counted" true
      (Factor.updates_since_refactor f <= 8
      && (Factor.stats f).updates = Factor.updates_since_refactor f)
  done

(* ------------------ FTRAN orders ---------------------------------- *)

(* [ftran_pattern] walks the factor steps through worklist heaps while
   its previous result was sparse, and in plain loops once that result
   passed a tenth of the rows. The two orders must give the same bits
   and the same pattern, order included: the pattern order feeds the
   spike the update writes into U and the simplex's ratio-test
   tie-breaks. Two factors are
   built and updated identically; before each compared column one is
   primed with a dense column (its next call takes the plain loops) and
   the other with a sparse one (its next call takes the heaps). *)
let test_ftran_orders () =
  let rng = Rng.create 515 in
  let m = 60 in
  let a = random_basis rng m in
  let fd = Factor.create ~m and fh = Factor.create ~m in
  let row_of = Array.make m 0 in
  refactor_dense fd a row_of;
  refactor_dense fh a row_of;
  let wd = Array.make m 0.0 and wh = Array.make m 0.0 in
  let pd = Array.make m 0 and ph = Array.make m 0 in
  let ftran f w pat col =
    List.iteri
      (fun k (i, v) ->
        w.(i) <- v;
        pat.(k) <- i)
      col;
    Factor.ftran_pattern f w pat (List.length col)
  in
  let clear w pat n =
    for k = 0 to n - 1 do
      w.(pat.(k)) <- 0.0
    done
  in
  let dense_col = List.init m (fun i -> (i, 1.0 +. float_of_int i)) in
  (* A unit column of the basis: its image is one unit entry. *)
  let unit_slot =
    let rec find j =
      if j >= m then Alcotest.fail "random basis has no unit column"
      else if
        Array.for_all Fun.id
          (Array.init m (fun i -> a.(i).(j) = if i = j then 1.0 else 0.0))
      then j
      else find (j + 1)
    in
    find 0
  in
  let sparse_col = [ (unit_slot, 1.0) ] in
  let bits w pat n =
    List.init n (fun k -> (pat.(k), Int64.bits_of_float w.(pat.(k))))
  in
  let pivots = ref 0 in
  for step = 1 to 60 do
    let nd = ftran fd wd pd dense_col in
    Alcotest.(check bool) "dense primer passes a tenth of m" true (10 * nd > m);
    clear wd pd nd;
    let nh = ftran fh wh ph sparse_col in
    Alcotest.(check bool) "sparse primer within a tenth of m" true
      (10 * nh <= m);
    clear wh ph nh;
    let col =
      List.sort_uniq compare
        (List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng m))
      |> List.map (fun i -> (i, Rng.float rng 4.0 -. 2.0))
    in
    let nd = ftran fd wd pd col and nh = ftran fh wh ph col in
    if bits wd pd nd <> bits wh ph nh then
      Alcotest.failf "column %d: plain-loop FTRAN differs from heap FTRAN" step;
    (* Every fifth column enters the basis on both factors through an
       update, at its largest entry outside the unit column's row
       (which keeps the sparse primer's image a unit entry). *)
    if step mod 5 = 0 then begin
      let r = ref (-1) in
      for k = 0 to nd - 1 do
        let i = pd.(k) in
        if
          i <> row_of.(unit_slot)
          && (!r < 0 || Float.abs wd.(i) > Float.abs wd.(!r))
        then r := i
      done;
      if !r >= 0 && Float.abs wd.(!r) > 1e-6 then begin
        Factor.update fd ~pivot_row:!r wd;
        Factor.update fh ~pivot_row:!r wh;
        incr pivots
      end
    end;
    clear wd pd nd;
    clear wh ph nh
  done;
  Alcotest.(check bool) "updates absorbed" true
    (!pivots >= 8 && Factor.updates_since_refactor fd = !pivots)

(* ------------------ Forrest-Tomlin chains ------------------------- *)

(* Long chains of column replacements, each checked against a dense
   oracle of the current basis. The oracle holds the basis by position
   ([cols.(p)] is the column at basis position p, dense) beside its
   explicit inverse, kept by the textbook Gauss-Jordan pivot on each
   replacement — dense arithmetic that shares nothing with the
   factor. Two factors run every chain: before each entering column
   one is primed to take the plain-loop FTRAN and the other the heap
   FTRAN, and their images must agree bit for bit, pattern order
   included, before both absorb the same update. *)
type oracle = { cols : float array array; binv : float array array }

let identity_oracle m =
  let eye () =
    Array.init m (fun i -> Array.init m (fun j -> if i = j then 1.0 else 0.0))
  in
  { cols = eye (); binv = eye () }

(* B^-1 x for a sparse x given as (row, value) entries. *)
let oracle_ftran o x =
  let m = Array.length o.cols in
  let z = Array.make m 0.0 in
  List.iter
    (fun (j, v) ->
      for i = 0 to m - 1 do
        z.(i) <- z.(i) +. (o.binv.(i).(j) *. v)
      done)
    x;
  z

(* B^-T c for a sparse c given as (position, value) entries. *)
let oracle_btran o c =
  let m = Array.length o.cols in
  let y = Array.make m 0.0 in
  List.iter
    (fun (p, v) ->
      let row = o.binv.(p) in
      for i = 0 to m - 1 do
        y.(i) <- y.(i) +. (row.(i) *. v)
      done)
    c;
  y

(* Position [r] takes column [col] whose image under the old inverse
   is [z]. *)
let oracle_replace o r col z =
  let m = Array.length o.cols in
  o.cols.(r) <- col;
  let pr = o.binv.(r) in
  let zr = z.(r) in
  for j = 0 to m - 1 do
    pr.(j) <- pr.(j) /. zr
  done;
  for i = 0 to m - 1 do
    if i <> r && z.(i) <> 0.0 then begin
      let row = o.binv.(i) and zi = z.(i) in
      for j = 0 to m - 1 do
        row.(j) <- row.(j) -. (zi *. pr.(j))
      done
    end
  done

(* Rebuild [f] from the oracle's columns; the oracle follows the new
   position assignment. *)
let oracle_refactor o f =
  let m = Array.length o.cols in
  let row_of = Array.make m 0 in
  Factor.refactorize f
    ~nnz:(fun _ -> m)
    ~load:(fun p idx vals ->
      let n = ref 0 in
      Array.iteri
        (fun i v ->
          if v <> 0.0 then begin
            idx.(!n) <- i;
            vals.(!n) <- v;
            incr n
          end)
        o.cols.(p);
      !n)
    ~row_of;
  row_of

let oracle_permute o row_of =
  let cols = Array.copy o.cols and binv = Array.copy o.binv in
  Array.iteri
    (fun p q ->
      o.cols.(q) <- cols.(p);
      o.binv.(q) <- binv.(p))
    row_of

let rel_err got want =
  let scale = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1.0 want in
  max_abs_diff got want /. scale

(* FTRAN, BTRAN and a pattern FTRAN of a sparse right-hand side, all
   against the oracle. *)
let check_solves_vs_oracle ~msg rng o f =
  let m = Array.length o.cols in
  let rhs () =
    List.sort_uniq compare
      (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng m))
    |> List.map (fun i -> (i, Rng.float rng 2.0 -. 1.0))
  in
  let dense x =
    let v = Array.make m 0.0 in
    List.iter (fun (i, a) -> v.(i) <- a) x;
    v
  in
  let b = rhs () in
  let z = dense b in
  Factor.ftran f z;
  if rel_err z (oracle_ftran o b) > tol then Alcotest.failf "%s: ftran" msg;
  let c = rhs () in
  let y = dense c in
  Factor.btran f y;
  if rel_err y (oracle_btran o c) > tol then Alcotest.failf "%s: btran" msg;
  let v = rhs () in
  let w = dense v in
  let idx = Array.make m 0 in
  List.iteri (fun k (i, _) -> idx.(k) <- i) v;
  let n = Factor.ftran_pattern f w idx (List.length v) in
  let seen = Array.make m false in
  for k = 0 to n - 1 do
    seen.(idx.(k)) <- true
  done;
  Array.iteri
    (fun i x ->
      if x <> 0.0 && not seen.(i) then
        Alcotest.failf "%s: ftran_pattern missed row %d" msg i)
    w;
  if rel_err w (oracle_ftran o v) > tol then
    Alcotest.failf "%s: ftran_pattern" msg

(* One chain: [steps] replacements on the twins [fd] / [fh], entering
   columns from [next_col] (a sparse column, or None to end the chain
   early). The leaving position is the largest image entry, as a
   ratio test on well-scaled data would pick it. Returns the number of
   updates made. *)
let run_chain ~msg ~steps ~next_col rng o fd fh =
  let m = Array.length o.cols in
  let wd = Array.make m 0.0 and wh = Array.make m 0.0 in
  let pd = Array.make m 0 and ph = Array.make m 0 in
  let ones = List.init m (fun i -> (i, 1.0)) in
  let ftran f w pat col =
    List.iteri
      (fun k (i, v) ->
        w.(i) <- v;
        pat.(k) <- i)
      col;
    Factor.ftran_pattern f w pat (List.length col)
  in
  let clear w pat n =
    for k = 0 to n - 1 do
      w.(pat.(k)) <- 0.0
    done
  in
  let bits w pat n =
    List.init n (fun k -> (pat.(k), Int64.bits_of_float w.(pat.(k))))
  in
  let updates = ref 0 in
  for step = 1 to steps do
    let col = next_col () in
    (* Primers: a full column sends [fd]'s next call through the plain
       loops, an empty one sends [fh]'s through the heaps. *)
    let n0 = ftran fd wd pd ones in
    clear wd pd n0;
    ignore (ftran fh wh ph [] : int);
    let nd = ftran fd wd pd col and nh = ftran fh wh ph col in
    if bits wd pd nd <> bits wh ph nh then
      Alcotest.failf "%s step %d: plain-loop FTRAN differs from heap FTRAN" msg
        step;
    let z = oracle_ftran o col in
    if rel_err wd z > tol then
      Alcotest.failf "%s step %d: entering image off the oracle" msg step;
    let r = ref pd.(0) in
    for k = 1 to nd - 1 do
      if Float.abs wd.(pd.(k)) > Float.abs wd.(!r) then r := pd.(k)
    done;
    if Float.abs wd.(!r) > 1e-6 then begin
      Factor.update fd ~pivot_row:!r wd;
      Factor.update fh ~pivot_row:!r wh;
      incr updates;
      let dense_col = Array.make m 0.0 in
      List.iter (fun (i, v) -> dense_col.(i) <- v) col;
      oracle_replace o !r dense_col z;
      let where = Printf.sprintf "%s step %d" msg step in
      check_solves_vs_oracle ~msg:(where ^ " (plain)") rng o fd;
      check_solves_vs_oracle ~msg:(where ^ " (heap)") rng o fh
    end;
    clear wd pd nd;
    clear wh ph nh
  done;
  !updates

(* A chain from the identity, then a fresh factorization of where it
   ended and a second chain from that, each of [steps] replacements.
   The policy override keeps both chains going without a rebuild; the
   stability test still speaks through [should_refactor]. *)
let chain_pair ~msg ~m ~steps ~next_col rng =
  let o = identity_oracle m in
  let fd = Factor.create ~m and fh = Factor.create ~m in
  Factor.set_refactor_every fd (Some max_int);
  Factor.set_refactor_every fh (Some max_int);
  let n1 =
    run_chain ~msg:(msg ^ " from identity") ~steps ~next_col rng o fd fh
  in
  let row_of = oracle_refactor o fd in
  if oracle_refactor o fh <> row_of then
    Alcotest.failf "%s: twin rebuilds differ" msg;
  oracle_permute o row_of;
  check_solves_vs_oracle ~msg:(msg ^ " fresh factor") rng o fd;
  let n2 =
    run_chain ~msg:(msg ^ " from a fresh factor") ~steps ~next_col rng o fd fh
  in
  Alcotest.(check bool)
    (msg ^ ": both chains ran at least 300 updates")
    true
    (n1 >= 300 && n2 >= 300);
  Alcotest.(check bool)
    (msg ^ ": well-conditioned updates pass the stability test")
    false (Factor.should_refactor fd);
  Alcotest.(check int)
    (msg ^ ": updates counted")
    (n1 + n2) (Factor.stats fd).updates

let random_sparse_col rng m () =
  List.sort_uniq compare
    (List.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng m))
  |> List.map (fun i -> (i, Rng.float rng 4.0 -. 2.0))

let test_chains_random () =
  let rng = Rng.create 2718 in
  List.iter
    (fun m ->
      chain_pair ~msg:(Printf.sprintf "random m=%d" m) ~m ~steps:320
        ~next_col:(random_sparse_col rng m) rng)
    [ 12; 40 ]

(* A plan_unlabelled shard's LP_SIMP (one 30-user planted community,
   about 1,050 rows): its structural columns enter in random order, so
   the chain walks through the bases the simplex meets there. *)
let test_chains_planted30 () =
  let rng = Rng.create 3030 in
  let g, _ =
    Svgic_graph.Generate.planted_partition rng ~n:30 ~communities:1 ~p_in:0.2
      ~p_out:0.0
  in
  let p, _ = Svgic.Lp_build.simp_lp (Helpers.arenas_instance rng g ~m:6 ~k:4) in
  let csc = Svgic_lp.Problem.csc p in
  let m = csc.Svgic_lp.Problem.c_nr and nv = Svgic_lp.Problem.num_vars p in
  let next_col () =
    let j = Rng.int rng nv in
    List.init
      (csc.Svgic_lp.Problem.col_ptr.(j + 1) - csc.Svgic_lp.Problem.col_ptr.(j))
      (fun q ->
        let k = csc.Svgic_lp.Problem.col_ptr.(j) + q in
        (csc.Svgic_lp.Problem.row_ind.(k), csc.Svgic_lp.Problem.values.(k)))
  in
  chain_pair
    ~msg:(Printf.sprintf "planted30 m=%d" m)
    ~m ~steps:320 ~next_col rng

(* ------------------ stability test -------------------------------- *)

(* A replacement that leaves the basis nearly singular: the entering
   column is another basic column plus a perturbation of size eps, so
   its pivot element is of order eps. Whether the update's arithmetic
   loses the new diagonal to cancellation depends on where the two
   columns sit in the pivot order, so every other basic column is
   tried. Each update must either take the stability path — request a
   rebuild, which then succeeds with accurate solves or raises
   Singular — or leave a factor that solves the new basis to a small
   backward error; and at the smallest perturbations some updates must
   be flagged. *)
let test_near_singular () =
  let m = 24 and slot = 7 in
  let flagged = Hashtbl.create 8 in
  List.iteri
    (fun case eps ->
      for j = 0 to m - 1 do
        if j <> slot then begin
          let rng = Rng.create ((100 * case) + j) in
          let a = random_basis rng m in
          let f = Factor.create ~m in
          let row_of = Array.make m 0 in
          refactor_dense f a row_of;
          let col =
            Array.init m (fun i ->
                a.(i).(j) +. (eps *. (Rng.float rng 2.0 -. 1.0)))
          in
          let w = Array.copy col in
          ignore (Factor.ftran_pattern f w (Array.init m Fun.id) m : int);
          Factor.update f ~pivot_row:row_of.(slot) w;
          for i = 0 to m - 1 do
            a.(i).(slot) <- col.(i)
          done;
          (* Backward error of B x = b solved through [f]. *)
          let backward_error () =
            let b = Array.init m (fun _ -> Rng.float rng 2.0 -. 1.0) in
            let z = Array.copy b in
            Factor.ftran f z;
            let x = Array.map (fun r -> z.(r)) row_of in
            let worst = ref 0.0 and scale = ref 1.0 in
            for i = 0 to m - 1 do
              let acc = ref (-.b.(i)) in
              for s = 0 to m - 1 do
                acc := !acc +. (a.(i).(s) *. x.(s));
                scale := Float.max !scale (Float.abs (a.(i).(s) *. x.(s)))
              done;
              worst := Float.max !worst (Float.abs !acc)
            done;
            !worst /. !scale
          in
          if Factor.should_refactor f then begin
            Hashtbl.replace flagged eps
              (1 + Option.value (Hashtbl.find_opt flagged eps) ~default:0);
            match refactor_dense f a row_of with
            | () ->
                if backward_error () > 1e-9 then
                  Alcotest.failf
                    "eps %g, column %d: rebuilt factor solves badly" eps j
            | exception Factor.Singular -> ()
          end
          else if backward_error () > 1e-9 then
            Alcotest.failf
              "eps %g, column %d: unflagged update left a bad factor" eps j
        end
      done)
    [ 1e-3; 1e-7; 1e-10; 1e-13; 0.0 ];
  List.iter
    (fun eps ->
      Alcotest.(check bool)
        (Printf.sprintf "some updates at eps %g flagged" eps)
        true
        (Hashtbl.mem flagged eps))
    [ 1e-13; 0.0 ]

(* ------------------ allocation ------------------------------------ *)

(* The largest image entry's row: a ratio test's pick on these data.
   A top-level loop over ints, so choosing allocates nothing. *)
let argmax_row w idx n =
  let r = ref idx.(0) in
  for k = 1 to n - 1 do
    if Float.abs w.(idx.(k)) > Float.abs w.(!r) then r := idx.(k)
  done;
  !r

(* [k] pivots of a fixed sequence on [f]: per pivot an entering column
   through ftran_pattern, the update, then a BTRAN and an FTRAN as the
   simplex does them. [cols] are dense columns, [pats] their
   patterns. *)
let pivots f ~k cols pats w idx y z =
  for s = 0 to k - 1 do
    let col = cols.(s) and pat = pats.(s) in
    let n0 = Array.length pat in
    for q = 0 to n0 - 1 do
      idx.(q) <- pat.(q);
      w.(pat.(q)) <- col.(pat.(q))
    done;
    let n = Factor.ftran_pattern f w idx n0 in
    Factor.update f ~pivot_row:(argmax_row w idx n) w;
    for q = 0 to n - 1 do
      w.(idx.(q)) <- 0.0
    done;
    Array.fill y 0 (Array.length y) 1.0;
    Factor.btran f y;
    Array.fill z 0 (Array.length z) 1.0;
    Factor.ftran f z
  done

(* The update and apply paths allocate nothing once the arenas have
   grown: after a warm-up run of the same 200-pivot sequence, 200
   pivots from a fresh factorization allocate exactly what 100 do
   (the difference would be the per-pivot allocation). *)
let test_update_allocation () =
  let m = 60 in
  let rng = Rng.create 4711 in
  let a = random_basis rng m in
  let cols =
    Array.init 200 (fun _ ->
        let c = Array.make m 0.0 in
        List.iter (fun (i, v) -> c.(i) <- v) (random_sparse_col rng m ());
        c)
  in
  let pats =
    Array.map
      (fun c ->
        Array.of_list
          (List.filter (fun i -> c.(i) <> 0.0) (List.init m Fun.id)))
      cols
  in
  let f = Factor.create ~m in
  Factor.set_refactor_every f (Some max_int);
  let row_of = Array.make m 0 in
  let w = Array.make m 0.0 and idx = Array.make m 0 in
  let y = Array.make m 0.0 and z = Array.make m 0.0 in
  refactor_dense f a row_of;
  pivots f ~k:200 cols pats w idx y z;
  let words k =
    refactor_dense f a row_of;
    let before = Gc.minor_words () in
    pivots f ~k cols pats w idx y z;
    Gc.minor_words () -. before
  in
  let w100 = words 100 in
  let w200 = words 200 in
  Alcotest.(check (float 0.0)) "200 pivots allocate what 100 do" w100 w200

(* ------------------ singularity ----------------------------------- *)

let test_singular () =
  let m = 6 in
  let rng = Rng.create 7 in
  let a = random_basis rng m in
  (* duplicate column 0 into column 1 *)
  for i = 0 to m - 1 do
    a.(i).(1) <- a.(i).(0)
  done;
  let f = Factor.create ~m in
  let row_of = Array.make m 0 in
  let raised =
    try
      refactor_dense f a row_of;
      false
    with Factor.Singular -> true
  in
  Alcotest.(check bool) "duplicate column detected" true raised;
  (* after Singular the factor is usable as the identity *)
  let w = Array.init m float_of_int in
  let w' = Array.copy w in
  Factor.ftran f w';
  Alcotest.(check bool) "identity after Singular" true
    (max_abs_diff w w' = 0.0);
  (* structurally empty column *)
  let b = random_basis (Rng.create 8) m in
  for i = 0 to m - 1 do
    b.(i).(2) <- 0.0
  done;
  let raised2 =
    try
      refactor_dense f b row_of;
      false
    with Factor.Singular -> true
  in
  Alcotest.(check bool) "empty column detected" true raised2

(* ------------------ policy + stats -------------------------------- *)

let test_policy () =
  let m = 8 in
  let rng = Rng.create 11 in
  let a = random_basis rng m in
  let f = Factor.create ~m in
  let row_of = Array.make m 0 in
  refactor_dense f a row_of;
  Alcotest.(check bool) "fresh factor needs no refactor" false
    (Factor.should_refactor f);
  let s = Factor.stats f in
  Alcotest.(check int) "one refactorization" 1 s.refactorizations;
  Alcotest.(check bool) "fill at least diagonal" true (s.fill_nnz >= m);
  Alcotest.(check bool) "basis nnz recorded" true (s.basis_nnz >= m);
  Alcotest.(check bool) "factor time accounted" true (s.factor_s >= 0.0);
  Factor.set_refactor_every f (Some 1);
  Alcotest.(check bool) "override, no updates yet" false
    (Factor.should_refactor f);
  (* Column 0 replaced by 1.5 times itself: its image is 1.5 at its
     basis position. *)
  let w = Array.init m (fun i -> 1.5 *. a.(i).(0)) in
  ignore (Factor.ftran_pattern f w (Array.init m Fun.id) m : int);
  Factor.update f ~pivot_row:row_of.(0) w;
  Alcotest.(check bool) "override fires after one update" true
    (Factor.should_refactor f);
  Factor.set_refactor_every f None;
  Alcotest.(check bool) "policy restored" false (Factor.should_refactor f)

let suite =
  [
    Alcotest.test_case "lu vs dense oracle (40 random bases)" `Quick
      test_oracle_lu;
    Alcotest.test_case "update etas = fresh refactorization" `Quick
      test_updates;
    Alcotest.test_case "ftran: plain loops = heaps, bit for bit" `Quick
      test_ftran_orders;
    Alcotest.test_case "singular bases detected, identity after" `Quick
      test_singular;
    Alcotest.test_case "refactor policy + stats counters" `Quick test_policy;
    Alcotest.test_case "FT chains = dense oracle (random bases)" `Quick
      test_chains_random;
    Alcotest.test_case "FT chains = dense oracle (planted30 LP_SIMP)" `Quick
      test_chains_planted30;
    Alcotest.test_case "near-singular update takes the stability path" `Quick
      test_near_singular;
    Alcotest.test_case "update and apply paths allocate nothing" `Quick
      test_update_allocation;
  ]
