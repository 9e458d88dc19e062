(** Plain-text persistence for instances and configurations, so that
    CLI runs and experiments can be saved, diffed, hand-edited and
    replayed. Checkpoints carry their instance in binary instead
    ({!Checkpoint}).

    Format (line-oriented, whitespace-separated):
    {v
      svgic-instance 1
      n <n> m <m> k <k> lambda <float>
      pref                      # n lines of m floats
      ...
      edges <count>             # then one line per directed edge:
      <u> <v> <tau_0> ... <tau_{m-1}>
    v}
    Configurations: [svgic-config 1], [n k], then n lines of k items. *)

val instance_to_string : Instance.t -> string

val instance_of_string : string -> (Instance.t, string) result
(** Decode failures report the byte offset of the offending line
    ([byte N: ...]) and every decoded instance passes
    [Instance.validate] before it is returned. *)

val save_instance : string -> Instance.t -> unit
(** [save_instance path inst] streams the instance into [path] line
    by line from the flat arenas: the writer never holds more than one
    formatted row, so saving a million-user instance does not build
    the whole text in memory ([instance_to_string] does). *)

val load_instance : string -> (Instance.t, string) result
(** Streaming loader: reads the file line by line, parses the
    preference matrix and the τ rows directly into flat arenas, and
    adopts them via [Instance.of_flat] — peak memory is the final
    instance footprint, not file size + parse intermediates. A
    writer-produced file (edges in lexicographic order) takes a
    zero-copy fast path; hand-edited files (out-of-order, duplicate or
    self-loop edge lines) fall back to an index permutation with the
    same semantics as [instance_of_string]. Same format and error
    messages as [instance_of_string]. *)

val config_to_string : Config.t -> Instance.t -> string
val config_of_string : Instance.t -> string -> (Config.t, string) result

val write_file : string -> string -> unit
val read_file : string -> string
