(* Metrics, correctness gates and the result line. *)

let sum xs = Array.fold_left ( +. ) 0.0 xs

let metrics : (string * float * string) list ref = ref []
let metric name unit_ value = metrics := (name, value, unit_) :: !metrics

let gates_failed = ref 0

(* A correctness gate: printed either way; a failure makes the run
   incorrect and its exit status non-zero. *)
let gate name ok detail =
  Printf.printf "gate %-28s %s  %s\n%!" name (if ok then "ok" else "FAILED") detail;
  if not ok then incr gates_failed

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let peak_rss_mb () =
  match Svgic_util.Rss.peak_rss_bytes () with
  | Some b -> float b /. 1048576.0
  | None -> nan

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* Host facts, printed on their own line ahead of the result. *)
let host ~nproc ~workload ~seed ~seconds ~traced =
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"available_domains\": %d, \"ocaml\": %S, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %d, \"traced\": %b}}\n%!"
    nproc
    (Svgic_util.Pool.available_domains ())
    Sys.ocaml_version workload seed seconds traced

(* The last line of standard output. *)
let result ~attempted ~failed =
  let body =
    String.concat ", "
      (List.rev_map
         (fun (name, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
         !metrics)
  in
  let correct = !gates_failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  correct
