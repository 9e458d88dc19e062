(* Extension F: a dynamic VR shopping session — shoppers join and leave
   a live serving session. Each tick applies the pending joins and
   leaves, re-solves every shard they touched and re-establishes the
   certified bracket bound <= objective <= upper. The program exits
   non-zero if a configuration breaks a rule or leaves its bracket.

   Run with: dune exec examples/dynamic_session.exe *)

module Rng = Svgic_util.Rng
module Config = Svgic.Config
module Serve = Svgic.Serve

let () =
  let rng = Rng.create 31337 in
  let inst =
    Svgic_data.Datasets.make Svgic_data.Datasets.Timik rng ~n:12 ~m:30 ~k:4
      ~lambda:0.5
  in
  let m = Svgic.Instance.m inst in
  let session = Serve.create rng inst in
  let ok = ref true in
  let report what =
    let obj = Serve.objective session in
    let bound = Serve.bound session and upper = Serve.upper session in
    (match
       Config.validate (Serve.instance session)
         (Config.assignment (Serve.config session))
     with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "invalid configuration: %s\n" msg;
        ok := false);
    if not (bound <= obj +. 1e-9 && obj <= upper +. 1e-9) then begin
      Printf.eprintf "objective %g outside [%g, %g]\n" obj bound upper;
      ok := false
    end;
    Printf.printf "t=%d  %2d shoppers, utility %7.2f in [%7.2f, %7.2f] (%s)\n"
      (Serve.tick_count session) (Serve.num_users session) obj bound upper what
  in
  report "initial solve";

  (* Two friends of shoppers 0 and 3 walk in, one per tick. *)
  let newcomer friends seed =
    let prng = Rng.create seed in
    Svgic.Dynamic.
      {
        pref = Array.init m (fun _ -> Rng.float prng 1.0);
        tau_out = (fun _ _ -> 0.15);
        tau_in = (fun _ _ -> 0.15);
        friends;
      }
  in
  let join profile =
    let id = Option.get (Serve.submit session (Serve.Join profile)) in
    ignore (Serve.tick session : Serve.tick_stats);
    report (Printf.sprintf "shopper %d joined" id);
    id
  in
  let id1 = join (newcomer [| 0; 3 |] 1) in
  ignore (join (newcomer [| id1; 5 |] 2) : int);

  (* Shopper 5 checks out. *)
  ignore (Serve.submit session (Serve.Leave 5) : int option);
  ignore (Serve.tick session : Serve.tick_stats);
  report "shopper 5 left";
  if not !ok then exit 1
