(* Tests for the LP substrate: simplex, branch-and-bound, Frank-Wolfe. *)

module Problem = Svgic_lp.Problem
module Simplex = Svgic_oracles.Simplex
module Branch_bound = Svgic_lp.Branch_bound
module Pairwise_fw = Svgic_lp.Pairwise_fw
module Rng = Svgic_util.Rng

let solve_expect_optimal p =
  match Simplex.solve p with
  | Simplex.Optimal s -> s
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let check_obj ?(eps = 1e-7) msg expected (s : Simplex.solution) =
  if Float.abs (s.objective -. expected) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected s.objective

(* ------------------------- simplex -------------------------------- *)

let test_simplex_textbook () =
  (* max 3x + 2y, x + y <= 4, x + 3y <= 6 -> 12 at (4, 0) *)
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:3.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:2.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Le 4.0;
  Problem.add_row p [ (x, 1.0); (y, 3.0) ] Problem.Le 6.0;
  let s = solve_expect_optimal p in
  check_obj "objective" 12.0 s;
  Alcotest.(check (float 1e-7)) "x" 4.0 s.x.(x);
  Alcotest.(check (float 1e-7)) "y" 0.0 s.x.(y)

let test_simplex_equality_and_bounds () =
  (* max 2a + b, a + b = 3, a <= 1 -> 4 at (1, 2) *)
  let p = Problem.create () in
  let a = Problem.add_var p ~upper:1.0 ~obj:2.0 ~name:"a" () in
  let b = Problem.add_var p ~obj:1.0 ~name:"b" () in
  Problem.add_row p [ (a, 1.0); (b, 1.0) ] Problem.Eq 3.0;
  let s = solve_expect_optimal p in
  check_obj "objective" 4.0 s;
  Alcotest.(check (float 1e-7)) "a at bound" 1.0 s.x.(a)

let test_simplex_ge_rows () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6  ==  max -x - y.
     Optimum at intersection (8/5, 6/5): objective -(14/5). *)
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:(-1.0) ~name:"x" () in
  let y = Problem.add_var p ~obj:(-1.0) ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 2.0) ] Problem.Ge 4.0;
  Problem.add_row p [ (x, 3.0); (y, 1.0) ] Problem.Ge 6.0;
  let s = solve_expect_optimal p in
  check_obj "objective" (-2.8) s

let test_simplex_negative_rhs () =
  (* max x s.t. -x <= -2 (i.e., x >= 2), x <= 5. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~upper:5.0 ~obj:1.0 ~name:"x" () in
  Problem.add_row p [ (x, -1.0) ] Problem.Le (-2.0);
  let s = solve_expect_optimal p in
  check_obj "objective" 5.0 s

let test_simplex_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, 1.0) ] Problem.Ge 2.0;
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | Simplex.Optimal _ | Simplex.Unbounded -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:0.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, -1.0) ] Problem.Le 1.0;
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | Simplex.Optimal _ | Simplex.Infeasible -> Alcotest.fail "expected unbounded"

let test_simplex_degenerate () =
  (* Classic degenerate vertex: several redundant constraints meet. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:1.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (y, 1.0) ] Problem.Le 1.0;
  Problem.add_row p [ (x, 2.0); (y, 2.0) ] Problem.Le 2.0;
  let s = solve_expect_optimal p in
  check_obj "objective" 1.0 s

let test_simplex_redundant_equalities () =
  (* Duplicate equality rows leave a basic artificial at zero. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 ~name:"x" () in
  let y = Problem.add_var p ~obj:2.0 ~name:"y" () in
  Problem.add_row p [ (x, 1.0); (y, 1.0) ] Problem.Eq 2.0;
  Problem.add_row p [ (x, 2.0); (y, 2.0) ] Problem.Eq 4.0;
  let s = solve_expect_optimal p in
  check_obj "objective" 4.0 s

(* Random feasible-by-construction LPs: generate a point x0 >= 0 and
   rows a·x <= a·x0 + slack, so x0 is feasible; the simplex optimum
   must be feasible and at least the objective at x0. *)
let qcheck_simplex_random =
  let open QCheck in
  let gen =
    Gen.(
      let* nv = int_range 1 6 in
      let* nr = int_range 1 8 in
      let* x0 = array_repeat nv (float_range 0.0 3.0) in
      let* obj = array_repeat nv (float_range (-2.0) 4.0) in
      let* rows =
        list_repeat nr
          (pair (array_repeat nv (float_range 0.0 2.0)) (float_range 0.0 2.0))
      in
      let* uppers = array_repeat nv (float_range 3.0 8.0) in
      return (nv, x0, obj, rows, uppers))
  in
  Test.make ~name:"simplex beats a known feasible point" ~count:60
    (make gen) (fun (nv, x0, obj, rows, uppers) ->
      let p = Problem.create () in
      let vars =
        Array.init nv (fun i ->
            Problem.add_var p ~upper:uppers.(i) ~obj:obj.(i) ())
      in
      (* Clamp x0 under the upper bounds. *)
      let x0 = Array.mapi (fun i v -> Float.min v uppers.(i)) x0 in
      List.iter
        (fun (coeffs, slack) ->
          let rhs =
            slack
            +. Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. x0.(i)) coeffs)
          in
          Problem.add_row p
            (Array.to_list (Array.mapi (fun i c -> (vars.(i), c)) coeffs))
            Problem.Le rhs)
        rows;
      match Simplex.solve p with
      | Simplex.Optimal s ->
          Problem.check_feasible ~eps:1e-6 p s.x
          && s.objective >= Problem.eval_objective p x0 -. 1e-6
      | Simplex.Infeasible -> false (* x0 is feasible by construction *)
      | Simplex.Unbounded -> false (* all vars have upper bounds *))

(* --------------------- branch and bound --------------------------- *)

let knapsack_problem values weights capacity =
  let p = Problem.create () in
  let vars =
    Array.mapi
      (fun _ v -> Problem.add_var p ~upper:1.0 ~obj:v ())
      values
  in
  Problem.add_row p
    (Array.to_list (Array.mapi (fun i w -> (vars.(i), w)) weights))
    Problem.Le capacity;
  (p, vars)

let brute_force_knapsack values weights capacity =
  let n = Array.length values in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let value = ref 0.0 and weight = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        value := !value +. values.(i);
        weight := !weight +. weights.(i)
      end
    done;
    if !weight <= capacity +. 1e-9 && !value > !best then best := !value
  done;
  !best

let test_bb_knapsack_exact () =
  let values = [| 5.0; 4.0; 3.0 |] and weights = [| 2.0; 3.0; 1.0 |] in
  let p, vars = knapsack_problem values weights 3.0 in
  let r = Branch_bound.solve p ~binary:vars in
  Alcotest.(check (float 1e-7)) "objective" 8.0 r.objective;
  Alcotest.(check bool) "proved" true r.proved_optimal

let test_bb_strategies_agree () =
  let values = [| 7.0; 2.0; 9.0; 4.0; 6.0; 3.0 |] in
  let weights = [| 3.0; 1.0; 5.0; 2.0; 4.0; 1.5 |] in
  let capacity = 8.0 in
  let expected = brute_force_knapsack values weights capacity in
  List.iter
    (fun strategy ->
      List.iter
        (fun branch_rule ->
          let p, vars = knapsack_problem values weights capacity in
          let options =
            { Branch_bound.default_options with strategy; branch_rule }
          in
          let r = Branch_bound.solve ~options p ~binary:vars in
          Alcotest.(check (float 1e-6)) "strategy optimum" expected r.objective)
        [ Branch_bound.Most_fractional; Branch_bound.Max_objective ])
    [ Branch_bound.Depth_first; Branch_bound.Best_first; Branch_bound.Hybrid ]

let test_bb_budget_anytime () =
  let values = Array.init 14 (fun i -> float_of_int ((i * 7 mod 13) + 1)) in
  let weights = Array.init 14 (fun i -> float_of_int ((i * 5 mod 11) + 1)) in
  let p, vars = knapsack_problem values weights 20.0 in
  let options =
    { Branch_bound.default_options with node_budget = Some 3 }
  in
  let r = Branch_bound.solve ~options p ~binary:vars in
  (* With a tiny budget we still expect a sound bound. *)
  Alcotest.(check bool) "bound >= incumbent" true (r.bound >= r.objective -. 1e-9);
  Alcotest.(check bool) "nodes within budget" true (r.nodes <= 3)

let qcheck_bb_random_knapsack =
  let open QCheck in
  let gen =
    Gen.(
      let* n = int_range 1 8 in
      let* values = array_repeat n (float_range 0.5 9.0) in
      let* weights = array_repeat n (float_range 0.5 5.0) in
      let* capacity = float_range 1.0 12.0 in
      return (values, weights, capacity))
  in
  Test.make ~name:"branch-and-bound matches brute force" ~count:40 (make gen)
    (fun (values, weights, capacity) ->
      let p, vars = knapsack_problem values weights capacity in
      let r = Branch_bound.solve p ~binary:vars in
      let expected = brute_force_knapsack values weights capacity in
      Float.abs (r.objective -. expected) < 1e-6 && r.proved_optimal)

(* ------------------------ Frank-Wolfe ----------------------------- *)

let fw_random_problem rng ~n ~m ~k ~edges =
  let linear =
    Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0))
  in
  let pairs =
    Array.init edges (fun _ ->
        let u = Rng.int rng n in
        let v = (u + 1 + Rng.int rng (n - 1)) mod n in
        (min u v, max u v, Array.init m (fun _ -> Rng.float rng 0.6)))
  in
  Pairwise_fw.{ n; m; k; linear; pairs }

(* Exact value of the same program via the dense simplex (y-variables
   explicit). *)
let exact_pairwise_optimum (fw : Pairwise_fw.problem) =
  let p = Problem.create () in
  let x =
    Array.init fw.n (fun u ->
        Array.init fw.m (fun c ->
            Problem.add_var p ~upper:1.0 ~obj:fw.linear.(u).(c) ()))
  in
  Array.iteri
    (fun u row ->
      ignore u;
      Problem.add_row p
        (Array.to_list (Array.map (fun v -> (v, 1.0)) row))
        Problem.Eq
        (float_of_int fw.k))
    x;
  Array.iteri
    (fun e (u, v, w) ->
      ignore e;
      Array.iteri
        (fun c wc ->
          if wc > 0.0 then begin
            let y = Problem.add_var p ~upper:1.0 ~obj:wc ~name:"y" () in
            Problem.add_row p [ (y, 1.0); (x.(u).(c), -1.0) ] Problem.Le 0.0;
            Problem.add_row p [ (y, 1.0); (x.(v).(c), -1.0) ] Problem.Le 0.0
          end)
        w)
    fw.pairs;
  (solve_expect_optimal p).objective

let test_fw_feasibility () =
  let rng = Rng.create 41 in
  let fw = fw_random_problem rng ~n:6 ~m:8 ~k:3 ~edges:10 in
  let s = Pairwise_fw.solve ~iterations:150 fw in
  Array.iter
    (fun row ->
      let total = Array.fold_left ( +. ) 0.0 row in
      Alcotest.(check (float 1e-6)) "row sums to k" (float_of_int fw.k) total;
      Array.iter
        (fun v ->
          Alcotest.(check bool) "bounds" true (v >= -1e-9 && v <= 1.0 +. 1e-9))
        row)
    s.x

let test_fw_near_optimal () =
  let rng = Rng.create 43 in
  for _trial = 1 to 3 do
    let fw = fw_random_problem rng ~n:5 ~m:6 ~k:2 ~edges:7 in
    let s = Pairwise_fw.solve ~iterations:600 ~smoothing:0.03 fw in
    let exact = exact_pairwise_optimum fw in
    Alcotest.(check bool) "fw below exact optimum" true (s.objective <= exact +. 1e-6);
    Alcotest.(check bool)
      (Printf.sprintf "fw at least 90%% of optimum (%.4f vs %.4f)" s.objective exact)
      true
      (s.objective >= 0.90 *. exact)
  done

let test_fw_objective_function () =
  (* Two users, one shared item: objective must use the true min. *)
  let fw =
    Pairwise_fw.
      {
        n = 2;
        m = 2;
        k = 1;
        linear = [| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |];
        pairs = [| (0, 1, [| 2.0; 0.0 |]) |];
      }
  in
  let x = [| [| 0.75; 0.25 |]; [| 0.5; 0.5 |] |] in
  Alcotest.(check (float 1e-9)) "objective" 1.0 (Pairwise_fw.objective fw x)

(* ------------------------- flat rows ------------------------------ *)

let row_list p =
  Array.to_list
    (Array.map
       (fun (r : Problem.row) -> (r.terms, r.cmp, r.rhs))
       (Problem.rows p))

(* The CSC view read back row by row: (row, var, coef) triples in
   column order. *)
let csc_triples p =
  let c = Problem.csc p in
  let acc = ref [] in
  for v = c.Problem.c_nv - 1 downto 0 do
    for q = c.Problem.col_ptr.(v + 1) - 1 downto c.Problem.col_ptr.(v) do
      acc := (c.Problem.row_ind.(q), v, c.Problem.values.(q)) :: !acc
    done
  done;
  !acc

(* What the CSC must hold for a list of rows: every term, grouped by
   column, rows ascending, a row's duplicates in their own order. *)
let expected_triples nv rows =
  List.concat_map
    (fun v ->
      List.concat
        (List.mapi
           (fun i (terms, _, _) ->
             List.filter_map
               (fun (u, c) -> if u = v then Some (i, v, c) else None)
               terms)
           rows))
    (List.init nv (fun v -> v))

let test_flat_rows_round_trip () =
  let p = Problem.create () in
  let vs = Array.init 4 (fun i -> Problem.add_var p ~obj:(float_of_int i) ()) in
  let rows =
    [
      ([ (vs.(0), 1.0); (vs.(2), -2.0) ], Problem.Le, 3.0);
      ([], Problem.Ge, -1.0);
      ([ (vs.(1), 0.5); (vs.(1), 0.25); (vs.(3), 4.0); (vs.(1), -1.0) ],
        Problem.Eq, 2.0);
      ([ (vs.(3), 1.0) ], Problem.Ge, 0.0);
    ]
  in
  List.iter (fun (terms, cmp, rhs) -> Problem.add_row p terms cmp rhs) rows;
  Alcotest.(check int) "row count" 4 (Problem.num_rows p);
  Alcotest.(check int) "nonzeros" 7 (Problem.num_nonzeros p);
  Alcotest.(check bool) "rows in insertion order" true (row_list p = rows);
  Alcotest.(check bool)
    "csc keeps every term, duplicates in row order" true
    (csc_triples p = expected_triples 4 rows);
  let c = Problem.csc p in
  Alcotest.(check bool)
    "csc senses and right-hand sides" true
    (Array.to_list c.Problem.row_cmp = List.map (fun (_, k, _) -> k) rows
    && Array.to_list c.Problem.row_rhs = List.map (fun (_, _, b) -> b) rows);
  (* Feasibility reads the same rows, duplicates summed: row 2 is
     -0.25 x1 + 4 x3 = 2, which x1 = 4, x3 = 0.75 meets only if all
     three x1 terms count. *)
  let x = [| 1.0; 4.0; 0.0; 0.75 |] in
  Alcotest.(check bool) "feasible point" true (Problem.check_feasible p x);
  x.(3) <- 0.5;
  Alcotest.(check bool) "Eq row violated" false (Problem.check_feasible p x)

let test_flat_rows_clone_copy_on_write () =
  let base = Problem.create () in
  let a = Problem.add_var base ~obj:1.0 () in
  let b = Problem.add_var base ~obj:2.0 () in
  Problem.add_row base [ (a, 1.0); (b, 1.0) ] Problem.Le 4.0;
  let base_rows = row_list base and base_csc = csc_triples base in
  let clone = Problem.clone base in
  Problem.add_row clone [ (b, 3.0) ] Problem.Le 5.0;
  Alcotest.(check bool) "base rows untouched by clone" true
    (row_list base = base_rows);
  Alcotest.(check bool) "base csc untouched by clone" true
    (csc_triples base = base_csc);
  Alcotest.(check int) "clone has its row" 2 (Problem.num_rows clone);
  (* And the reverse: a row added to the base after cloning stays out
     of a clone, even one that has not written yet. *)
  let clone2 = Problem.clone base in
  let clone2_rows = row_list clone2 in
  Problem.add_row base [ (a, 2.0) ] Problem.Ge 1.0;
  Problem.add_row base [ (b, -1.0) ] Problem.Ge (-3.0);
  Alcotest.(check bool) "clone rows untouched by base" true
    (row_list clone2 = clone2_rows);
  Alcotest.(check bool) "first clone untouched by base" true
    (row_list clone
    = base_rows @ [ ([ (b, 3.0) ], Problem.Le, 5.0) ]);
  Alcotest.(check int) "base grew" 3 (Problem.num_rows base);
  Problem.add_row clone2 [ (a, 1.0); (a, 1.0) ] Problem.Eq 1.0;
  Alcotest.(check bool) "base untouched by second clone" true
    (List.length (row_list base) = 3
    && csc_triples base = expected_triples 2 (row_list base))

let test_flat_rows_unknown_variable () =
  let p = Problem.create () in
  let x = Problem.add_var p ~obj:1.0 () in
  Problem.add_row p [ (x, 1.0) ] Problem.Le 1.0;
  let before = row_list p in
  List.iter
    (fun terms ->
      match Problem.add_row p terms Problem.Le 1.0 with
      | () -> Alcotest.fail "unknown variable accepted"
      | exception Invalid_argument _ -> ())
    [ [ (x, 1.0); (1, 2.0) ]; [ (-1, 1.0) ] ];
  Alcotest.(check bool) "rejected rows leave no trace" true
    (row_list p = before && Problem.num_nonzeros p = 1)

let suite =
  [
    Alcotest.test_case "simplex textbook" `Quick test_simplex_textbook;
    Alcotest.test_case "simplex equality+bounds" `Quick test_simplex_equality_and_bounds;
    Alcotest.test_case "simplex >= rows" `Quick test_simplex_ge_rows;
    Alcotest.test_case "simplex negative rhs" `Quick test_simplex_negative_rhs;
    Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex degenerate" `Quick test_simplex_degenerate;
    Alcotest.test_case "simplex redundant equalities" `Quick test_simplex_redundant_equalities;
    Alcotest.test_case "bb knapsack exact" `Quick test_bb_knapsack_exact;
    Alcotest.test_case "bb strategies agree" `Quick test_bb_strategies_agree;
    Alcotest.test_case "bb anytime budget" `Quick test_bb_budget_anytime;
    Alcotest.test_case "fw feasibility" `Quick test_fw_feasibility;
    Alcotest.test_case "fw near optimal" `Quick test_fw_near_optimal;
    Alcotest.test_case "fw objective" `Quick test_fw_objective_function;
    Alcotest.test_case "flat rows round trip (rows, csc, duplicates, empty)"
      `Quick test_flat_rows_round_trip;
    Alcotest.test_case "flat rows: clone copies on write" `Quick
      test_flat_rows_clone_copy_on_write;
    Alcotest.test_case "flat rows: unknown variable raises" `Quick
      test_flat_rows_unknown_variable;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ qcheck_simplex_random; qcheck_bb_random_knapsack ]
