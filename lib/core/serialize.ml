module Graph = Svgic_graph.Graph
module FA = Float.Array

(* ---- writers ----------------------------------------------------- *)

(* One emit per line: the writer never holds more than a single
   formatted row, so saving a million-user instance streams straight
   from the arenas through the channel's own buffer. *)
let emit_instance emit inst =
  let n = Instance.n inst and m = Instance.m inst in
  emit "svgic-instance 1\n";
  emit
    (Printf.sprintf "n %d m %d k %d lambda %.17g\n" n m (Instance.k inst)
       (Instance.lambda inst));
  let buf = Buffer.create 256 in
  for u = 0 to n - 1 do
    Buffer.clear buf;
    for c = 0 to m - 1 do
      if c > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%.17g" (Instance.pref inst u c))
    done;
    Buffer.add_char buf '\n';
    emit (Buffer.contents buf)
  done;
  emit (Printf.sprintf "edges %d\n" (Instance.num_edges inst));
  Instance.iter_edges inst (fun e u v ->
      Buffer.clear buf;
      Buffer.add_string buf (Printf.sprintf "%d %d" u v);
      for c = 0 to m - 1 do
        Buffer.add_string buf
          (Printf.sprintf " %.17g" (Instance.tau_edge inst e c))
      done;
      Buffer.add_char buf '\n';
      emit (Buffer.contents buf))

let instance_to_string inst =
  let buf = Buffer.create 4096 in
  emit_instance (Buffer.add_string buf) inst;
  Buffer.contents buf

let save_instance path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> emit_instance (output_string oc) inst)

(* ---- readers ----------------------------------------------------- *)

let tokens_of_line line =
  String.split_on_char ' ' line |> List.filter (( <> ) "")

(* Non-empty-line sources: the parser below is written once against a
   [source] and shared by the in-memory and the streaming entry
   points.  [pos] reports the byte offset of the start of the line
   most recently returned by [next], so every decode failure can name
   where in the file it happened. *)
type source = { next : unit -> string option; pos : unit -> int }

let source_of_lines lines =
  let rem = ref lines in
  let off = ref 0 and cur = ref 0 in
  let rec next () =
    match !rem with
    | [] ->
        cur := !off;
        None
    | l :: tl ->
        rem := tl;
        cur := !off;
        off := !off + String.length l + 1;
        if l = "" then next () else Some l
  in
  { next; pos = (fun () -> !cur) }

let source_of_channel ic =
  let cur = ref 0 in
  let rec next () =
    cur := pos_in ic;
    match input_line ic with
    | "" -> next ()
    | line -> Some line
    | exception End_of_file -> None
  in
  { next; pos = (fun () -> !cur) }

let int_tok t =
  try int_of_string t
  with Failure _ -> failwith (Printf.sprintf "bad integer %S" t)

let float_tok t =
  try float_of_string t
  with Failure _ -> failwith (Printf.sprintf "bad float %S" t)

(* Parse [count] floats of a line's token list into [dst] starting at
   [off]; returns how many tokens the line actually carried (extras are
   parsed for errors but not stored). *)
let fill_floats dst off count toks =
  let seen = ref 0 in
  List.iter
    (fun tok ->
      let x = float_tok tok in
      if !seen < count then FA.set dst (off + !seen) x;
      incr seen)
    toks;
  !seen

let parse_instance src =
  let err msg = Error (Printf.sprintf "byte %d: %s" (src.pos ()) msg) in
  let next = src.next in
  match next () with
  | Some header when String.trim header = "svgic-instance 1" -> (
      match next () with
      | Some dims -> (
          match tokens_of_line dims with
          | [ "n"; n; "m"; m; "k"; k; "lambda"; lambda ] -> (
              try
                let n = int_tok n
                and m = int_tok m
                and k = int_tok k
                and lambda = float_tok lambda in
                if n < 0 then err "missing preference rows"
                else if m < 1 || k < 1 || k > m then
                  err "Instance.create: need 1 <= k <= m"
                else begin
                  (* Preference matrix straight into its arena. *)
                  let pref = FA.create (n * m) in
                  let row = ref 0 and short = ref false in
                  while (not !short) && !row < n do
                    match next () with
                    | None -> short := true
                    | Some line ->
                        let got =
                          fill_floats pref (!row * m) m (tokens_of_line line)
                        in
                        if got <> m then
                          invalid_arg "Instance.create: pref row length";
                        incr row
                  done;
                  if !short then err "missing preference rows"
                  else
                    match next () with
                    | None -> err "missing edges section"
                    | Some count_line -> (
                        match tokens_of_line count_line with
                        | [ "edges"; count ] ->
                            let count = max 0 (int_tok count) in
                            let eu = Array.make (max 1 count) 0
                            and ev = Array.make (max 1 count) 0 in
                            let tau = FA.create (count * m) in
                            (* A writer-produced file lists edges in
                               the arena's lexicographic order with no
                               duplicates or self-loops; track that so
                               the τ block can be adopted as-is. *)
                            let canonical = ref true in
                            let i = ref 0 and short = ref false in
                            while (not !short) && !i < count do
                              match next () with
                              | None -> short := true
                              | Some line -> (
                                  match tokens_of_line line with
                                  | u :: v :: taus ->
                                      let u = int_tok u
                                      and v = int_tok v in
                                      (* Pre-checks with actionable
                                         messages: a dangling endpoint
                                         or short τ row would otherwise
                                         surface as a generic
                                         out-of-range exception deep in
                                         graph/instance construction. *)
                                      if u < 0 || u >= n || v < 0 || v >= n
                                      then
                                        failwith
                                          (Printf.sprintf
                                             "edge (%d,%d): endpoint outside \
                                              [0,%d)"
                                             u v n);
                                      let got = fill_floats tau (!i * m) m taus in
                                      if got <> m then
                                        failwith
                                          (Printf.sprintf
                                             "edge (%d,%d): %d tau values, \
                                              expected %d"
                                             u v got m);
                                      eu.(!i) <- u;
                                      ev.(!i) <- v;
                                      if u = v then canonical := false;
                                      if
                                        !i > 0
                                        && (eu.(!i - 1) > u
                                           || (eu.(!i - 1) = u
                                              && ev.(!i - 1) >= v))
                                      then canonical := false;
                                      incr i
                                  | _ -> failwith "bad edge line")
                            done;
                            if !short then err "missing edge rows"
                            else begin
                              let graph =
                                Graph.of_edge_arrays ~n (Array.sub eu 0 count)
                                  (Array.sub ev 0 count)
                              in
                              let tau =
                                if !canonical && Graph.num_edges graph = count
                                then tau
                                else begin
                                  (* Slow path for hand-edited files:
                                     permute rows to arena order; a
                                     later duplicate wins, a self-loop
                                     is dropped (edge_index < 0). *)
                                  let ne = Graph.num_edges graph in
                                  let t2 = FA.make (ne * m) 0.0 in
                                  for i = 0 to count - 1 do
                                    let e = Graph.edge_index graph eu.(i) ev.(i) in
                                    if e >= 0 then
                                      for c = 0 to m - 1 do
                                        FA.set t2
                                          ((e * m) + c)
                                          (FA.get tau ((i * m) + c))
                                      done
                                  done;
                                  t2
                                end
                              in
                              let inst =
                                Instance.of_flat ~graph ~m ~k ~lambda ~pref ~tau
                              in
                              (* Post-create health screen: NaN
                                 utilities pass [of_flat]'s negativity
                                 checks, and a poisoned instance would
                                 otherwise only be noticed mid-solve. *)
                              match Instance.validate inst with
                              | Ok () -> Ok inst
                              | Error (v :: _) ->
                                  Error (Instance.violation_to_string v)
                              | Error [] -> assert false
                            end
                        | _ -> err "bad edges header")
                end
              with
              | Failure msg -> err msg
              | Invalid_argument msg -> err msg)
          | _ -> err "bad dimensions line")
      | None -> err "bad dimensions line")
  | _ -> Error "not a svgic-instance file"

let instance_of_string text =
  parse_instance (source_of_lines (String.split_on_char '\n' text))

let load_instance path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_instance (source_of_channel ic))

(* ---- configurations ---------------------------------------------- *)

let config_to_string cfg inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "svgic-config 1\n";
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Instance.n inst) (Instance.k inst));
  for u = 0 to Instance.n inst - 1 do
    Array.iteri
      (fun s c ->
        if s > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int c))
      (Config.row cfg u);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let config_of_string inst text =
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
  match lines with
  | header :: dims :: rows when String.trim header = "svgic-config 1" -> (
      try
        match tokens_of_line dims with
        | [ n; k ] ->
            let n = int_of_string n and k = int_of_string k in
            if n <> Instance.n inst || k <> Instance.k inst then
              Error "dimension mismatch with instance"
            else if List.length rows < n then Error "missing rows"
            else
              let matrix =
                Array.of_list
                  (List.filteri (fun i _ -> i < n) rows
                  |> List.map (fun line ->
                         Array.of_list
                           (List.map int_of_string (tokens_of_line line))))
              in
              (match Config.validate inst matrix with
              | Ok () -> Ok (Config.make inst matrix)
              | Error msg -> Error msg)
        | _ -> Error "bad dimensions line"
      with Failure msg -> Error msg)
  | _ -> Error "not a svgic-config file"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
