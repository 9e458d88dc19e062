(** Community detection and partitioning.

    Used by the subgroup-style baselines: SDP pre-partitions the
    shopping group by friendship (community structure), and the
    SVGIC-ST experiments pre-partition into balanced subgroups of size
    at most [M] ("-P" variants of Figures 13–15). *)

val greedy_modularity : Graph.t -> int array
(** Clauset–Newman–Moore agglomerative modularity maximization on the
    undirected pair graph ("Finding community structure in very large
    networks", 2004), returning compact labels. Deterministic.

    With [p = Graph.num_pairs g], [L_ab] the number of friend pairs
    joining communities [a] and [b], and [D_a] the summed undirected
    degree of [a], the gain of merging [a] and [b] is the exact integer
    [2p·L_ab − D_a·D_b]; the modularity change is that gain over [2p²].
    Its absolute value is at most [2p²], so native ints never round.
    Starting from singletons, each step merges the adjacent pair with
    the highest gain; ties go to the pair whose smallest joining pair
    index is lowest (unique per community pair, so the order is strict
    and no hash or heap layout can leak into the result). Merging
    stops when no adjacent pair has a positive gain.

    Each merge updates only the merged community's neighbours and
    re-queues them in a max-heap with lazy deletion, rebuilt whenever
    stale entries outnumber queued ones: O(Σ merges (deg a + deg b) ·
    log p) time — [O(p·d·log n)] for a dendrogram of depth [d] — and
    O(n + p) memory. *)

val modularity : Graph.t -> int array -> float
(** Newman modularity of a labelling on the undirected pair graph. *)

val balanced_partition :
  Svgic_util.Rng.t -> Graph.t -> parts:int -> int array
(** Splits vertices into [parts] groups whose sizes differ by at most
    one, greedily placing each vertex (in decreasing-degree order) into
    the non-full group containing most of its already-placed friends.
    This is the size-capped pre-partitioning used by the "-P" baselines
    of the SVGIC-ST experiments. *)

val groups_of_labels : int array -> int array array
(** Members per community, indexed by compact label. *)

val compact_labels : int array -> int array
(** Renumbers arbitrary labels to [0 .. c-1] preserving identity. *)
