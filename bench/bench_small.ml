(* Figure 3 (small-dataset comparisons vs IP) and Figure 4 (λ split).
   Small shopping groups are random-walk samples of the Timik-like
   network, as in Section 6.2. *)

module C = Bench_common
module Datasets = Svgic_data.Datasets

let samples = 3

let make ~n ~m ~k rng = Datasets.make Datasets.Timik rng ~n ~m ~k ~lambda:0.5

let methods () = C.heuristics @ [ C.ip_solver ~time_budget_s:20.0 () ]

(* The exact IP is only run at the small sizes where its
   branch-and-bound tree terminates — the same "IP cannot terminate
   beyond small sizes" cut-off the paper applies (Section 6.4). *)
let ip_tractable ~n ~m ~k = n * m * k <= 300

let sweep ~id ~title ~note ~axis ~points ~size_of ~make_instance ~metric =
  C.heading id title;
  C.paper_note note;
  let methods = methods () in
  C.print_header axis (List.map (fun (s : C.solver) -> s.name) methods);
  List.iteri
    (fun i point ->
      let n, m, k = size_of point in
      let cells =
        List.map
          (fun (solver : C.solver) ->
            if solver.name = "IP" && not (ip_tractable ~n ~m ~k) then "-"
            else
              let r = C.measure ~samples ~seed:(i + 1) (make_instance point) solver in
              Printf.sprintf "%.3f" (metric r))
          methods
      in
      C.print_row_str (string_of_int point) cells)
    points

let utility_vs_n () =
  sweep ~id:"fig3a" ~title:"Total SAVG utility vs size of user set n (small)"
    ~note:
      [
        "AVG/AVG-D close to IP (within ~4-6%), beating baselines by";
        "50.8-62.8% as n grows; PER grows slowest.";
      ]
    ~axis:"n" ~points:[ 4; 6; 8; 10; 12 ]
    ~size_of:(fun n -> (n, 8, 3))
    ~make_instance:(fun n rng -> make ~n ~m:8 ~k:3 rng)
    ~metric:(fun r -> r.C.value)

let time_vs_n () =
  sweep ~id:"fig3b" ~title:"Execution time (s) vs size of user set n (small)"
    ~note:
      [
        "AVG/AVG-D need at most 7.5%/17.4% of IP's time, slightly more";
        "than the one-factor baselines.";
      ]
    ~axis:"n" ~points:[ 4; 6; 8; 10; 12 ]
    ~size_of:(fun n -> (n, 8, 3))
    ~make_instance:(fun n rng -> make ~n ~m:8 ~k:3 rng)
    ~metric:(fun r -> r.C.seconds)

let utility_vs_m () =
  sweep ~id:"fig3c" ~title:"Total SAVG utility vs size of item set m (small)"
    ~note:[ "m barely moves the utility: top items are already inside." ]
    ~axis:"m" ~points:[ 6; 10; 14; 18 ]
    ~size_of:(fun m -> (8, m, 3))
    ~make_instance:(fun m rng -> make ~n:8 ~m ~k:3 rng)
    ~metric:(fun r -> r.C.value)

let time_vs_m () =
  sweep ~id:"fig3d" ~title:"Execution time (s) vs size of item set m (small)"
    ~note:[ "IP grows fastest in m; AVG/AVG-D stay near-flat." ]
    ~axis:"m" ~points:[ 6; 10; 14; 18 ]
    ~size_of:(fun m -> (8, m, 3))
    ~make_instance:(fun m rng -> make ~n:8 ~m ~k:3 rng)
    ~metric:(fun r -> r.C.seconds)

let utility_vs_k () =
  sweep ~id:"fig3e" ~title:"Total SAVG utility vs number of slots k (small)"
    ~note:
      [
        "AVG-D/AVG pull away as k grows (134.7%/102.1% over baselines";
        "at large k): static subgroups run out of common items.";
      ]
    ~axis:"k" ~points:[ 2; 3; 4; 5 ]
    ~size_of:(fun k -> (8, 10, k))
    ~make_instance:(fun k rng -> make ~n:8 ~m:10 ~k rng)
    ~metric:(fun r -> r.C.value)

let time_vs_k () =
  sweep ~id:"fig3f" ~title:"Execution time (s) vs number of slots k (small)"
    ~note:[ "IP's time explodes in k; approximation algorithms scale." ]
    ~axis:"k" ~points:[ 2; 3; 4; 5 ]
    ~size_of:(fun k -> (8, 10, k))
    ~make_instance:(fun k rng -> make ~n:8 ~m:10 ~k rng)
    ~metric:(fun r -> r.C.seconds)

(* Figure 4: normalized total SAVG utility (split into Personal% and
   Social%) under different λ, normalized by IP's total. *)
let utility_vs_lambda () =
  C.heading "fig4" "Utility split vs λ (normalized by IP)";
  C.paper_note
    [
      "FMG/SDP improve as λ grows but cannot address diverse";
      "preferences; PER has the highest preference and lowest social";
      "utility and a small total.";
    ];
  let methods = methods () in
  List.iter
    (fun lambda ->
      Printf.printf "λ = %.2f\n" lambda;
      C.print_header "method" [ "personal"; "social"; "total"; "norm" ];
      let make rng =
        Datasets.make Datasets.Timik rng ~n:8 ~m:8 ~k:3 ~lambda
      in
      (* IP total for normalization (first sample only). *)
      let rows =
        List.map
          (fun (solver : C.solver) ->
            let pref_sum = ref 0.0 and soc_sum = ref 0.0 in
            for sample = 1 to samples do
              let rng = Svgic_util.Rng.create (1009 + sample) in
              let inst = make rng in
              let solver_rng = Svgic_util.Rng.create (7919 + sample) in
              let cfg = solver.run solver_rng inst in
              let p, s = Svgic.Metrics.utility_split inst cfg in
              pref_sum := !pref_sum +. p;
              soc_sum := !soc_sum +. s
            done;
            ( solver.name,
              !pref_sum /. float_of_int samples,
              !soc_sum /. float_of_int samples ))
          methods
      in
      let ip_total =
        List.fold_left
          (fun acc (name, p, s) -> if name = "IP" then p +. s else acc)
          1.0 rows
      in
      List.iter
        (fun (name, p, s) ->
          C.print_row name [ p; s; p +. s; (p +. s) /. ip_total ])
        rows;
      print_newline ())
    [ 0.33; 0.5; 0.67 ]

let run_all () =
  utility_vs_n ();
  time_vs_n ();
  utility_vs_m ();
  time_vs_m ();
  utility_vs_k ();
  time_vs_k ();
  utility_vs_lambda ()
