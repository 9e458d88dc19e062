(* The Factor module against a dense linear-algebra oracle: the
   Markowitz LU must solve B z = w and B^T y = c to tight tolerance on
   random unit-heavy bases, absorb column replacements through update
   etas, agree with a fresh factorization after any update sequence,
   and detect singular column sets. *)

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

(* ------------------ update etas ----------------------------------- *)

(* Replace random columns one at a time through Factor.update_pattern
   (with the full pattern [0 .. m-1]) and compare every FTRAN against a
   freshly refactorized twin. *)
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
      Factor.ftran f w;
      let r = row_of.(slot) in
      if Float.abs w.(r) > 1e-6 then begin
        Factor.update_pattern f ~pivot_row:r w (Array.init m Fun.id) m;
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
      && (Factor.stats f).eta_appends = Factor.updates_since_refactor f)
  done

(* ------------------ FTRAN orders ---------------------------------- *)

(* [ftran_pattern] walks the factor steps through worklist heaps while
   its previous result was sparse, and in plain loops once that result
   passed a tenth of the rows. The two orders must give the same bits
   and the same pattern, order included: the pattern order feeds the
   eta entries and the simplex's ratio-test tie-breaks. Two factors are
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
       update eta, at its largest entry outside the unit column's row
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
        Factor.update_pattern fd ~pivot_row:!r wd pd nd;
        Factor.update_pattern fh ~pivot_row:!r wh ph nh;
        incr pivots
      end
    end;
    clear wd pd nd;
    clear wh ph nh
  done;
  Alcotest.(check bool) "update etas absorbed" true
    (!pivots >= 8 && Factor.updates_since_refactor fd = !pivots)

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
  let w = Array.make m 0.0 in
  w.(row_of.(0)) <- 1.5;
  Factor.update_pattern f ~pivot_row:row_of.(0) w (Array.init m Fun.id) m;
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
  ]
