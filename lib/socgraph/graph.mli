(** Directed social network over vertices [0 .. n-1].

    SVGIC's social utility is defined on directed edges ([τ(u,v,c)] may
    differ from [τ(v,u,c)]), while co-display and subgroup metrics act
    on unordered friend pairs; this module exposes both views.

    The representation is int-packed CSR (flat offset/value arenas, no
    per-vertex boxed rows, no tuple arrays). Directed edges carry a
    dense index in lexicographic (u, v) order — the {e edge arena} —
    which downstream tables (τ rows, shard remaps) use as their key.
    Unordered pairs carry an analogous dense index. The array-returning
    accessors ([edges], [pairs], neighbor rows) build fresh arrays per
    call; hot paths should use the index accessors and iterators. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** Builds a graph from directed edges. Self-loops and duplicates are
    dropped. Raises [Invalid_argument] on out-of-range endpoints. *)

val of_edge_arrays : n:int -> int array -> int array -> t
(** [of_edge_arrays ~n eu ev] builds from parallel endpoint arrays
    (edge [i] is [eu.(i) -> ev.(i)]); the allocation-light constructor
    for generated million-edge graphs. Self-loops and duplicates are
    dropped. Raises [Invalid_argument] on out-of-range endpoints or
    mismatched lengths. *)

val n : t -> int
val num_edges : t -> int
(** Directed edge count — also the size of the edge arena; valid edge
    indices are [0 .. num_edges - 1], in lexicographic (u, v) order. *)

val num_pairs : t -> int
(** Unordered friend-pair count; pair indices are
    [0 .. num_pairs - 1], lexicographic. *)

val in_degree : t -> int -> int

val out_neighbors : t -> int -> int array
(** Fresh sorted array per call; prefer {!iter_out_edges} on hot
    paths. *)

val in_neighbors : t -> int -> int array
val has_edge : t -> int -> int -> bool

val edge_index : t -> int -> int -> int
(** [edge_index g u v] is the dense index of directed edge [(u, v)],
    or [-1] when absent. O(log out-degree). *)

val edge_u : t -> int -> int
(** Source endpoint of the edge with the given index. *)

val edge_v : t -> int -> int
(** Target endpoint of the edge with the given index. *)

val pair_u : t -> int -> int
(** Smaller endpoint of the pair with the given index. *)

val pair_v : t -> int -> int
(** Larger endpoint of the pair with the given index. *)

val edges : t -> (int * int) array
(** All directed edges, lexicographic order (index order). Fresh tuple
    array per call; prefer {!iteri_edges} on hot paths. *)

val pairs : t -> (int * int) array
(** Unordered pairs [(u, v)] with [u < v] such that at least one of the
    two directed edges exists. These are the "friend pairs" of the
    paper's subgroup metrics. Fresh tuple array per call; prefer
    {!iteri_pairs} on hot paths. *)

val neighbors_undirected : t -> int -> int array
(** Union of in- and out-neighborhoods (fresh sorted array). *)

val degree_undirected : t -> int -> int

val und_neighbor : t -> int -> int -> int
(** [und_neighbor g u j] is the [j]-th (sorted) undirected neighbor of
    [u]; allocation-free random access for samplers. *)

val iteri_edges : t -> (int -> int -> int -> unit) -> unit
(** [iteri_edges g f] calls [f e u v] for every directed edge in index
    order. Allocation-free. *)

val iteri_pairs : t -> (int -> int -> int -> unit) -> unit
(** [iteri_pairs g f] calls [f i u v] for every unordered pair in index
    order. Allocation-free. *)

val iter_out_edges : t -> int -> (int -> int -> unit) -> unit
(** [iter_out_edges g u f] calls [f e v] for each out-edge of [u] with
    its dense edge index [e]. *)

val iter_in : t -> int -> (int -> unit) -> unit
val iter_und : t -> int -> (int -> unit) -> unit

val mem_words : t -> int
(** Total words held by the CSR arenas (arena-footprint accounting). *)

val density : t -> float
(** Undirected pair density: [|pairs| / (n·(n-1)/2)]; 0 when n < 2. *)

val induced_pair_count : t -> int array -> int
(** Number of friend pairs with both endpoints in the given vertex
    set. *)

val induced_density : t -> int array -> float
(** Pair density of the induced subgraph (1.0 for singleton sets, by
    the convention used in the paper's normalized-density metric). *)

val ego : t -> center:int -> hops:int -> int array
(** Vertices within [hops] undirected steps of [center], including the
    center, sorted. *)

val subgraph : t -> int array -> t * int array
(** [subgraph g vs] returns the induced subgraph on [vs] with vertices
    renumbered [0 .. length vs - 1], plus the mapping from new index to
    original vertex. It walks only the members' out-rows, so its cost
    is their out-degree sum, independent of the rest of the graph.
    Raises [Invalid_argument] when a member is out of range. *)

val connected_components : t -> int list array
(** Undirected connected components (list of members per component). *)
