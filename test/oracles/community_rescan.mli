(** Exact-arithmetic full-rescan greedy modularity: the reference the
    community tests compare [Community.greedy_modularity] against. *)

val scaled_modularity : Svgic_graph.Graph.t -> int array -> int
(** [4p²·Q] of a labelling with labels in [0 .. n-1], as an exact
    integer ([p] friend pairs, [Q] Newman modularity). *)

val greedy_modularity : Svgic_graph.Graph.t -> int array
(** Repeatedly merges the adjacent community pair with the largest
    strictly positive exact gain, the first met in pair-index order
    among equals; compact labels. Cubic: for small graphs. *)
