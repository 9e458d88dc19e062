(** Sparse basis factorization behind the revised simplex FTRAN/BTRAN
    entry points.

    A [t] represents the inverse of one basis matrix [B] (square, [m]
    rows; columns are opaque slots [0..m-1] read back through caller
    callbacks) as a Markowitz-ordered sparse LU with threshold partial
    pivoting. Pivots are chosen to minimize the Markowitz fill metric
    [(r_i - 1)(c_j - 1)] among entries within a relative threshold of
    their column's magnitude, after a fill-free singleton elimination
    pre-pass that triangularizes the unit-heavy bases these LPs
    produce. FTRAN/BTRAN cost is proportional to the L + U fill.

    Basis changes are absorbed by Forrest–Tomlin updates (Forrest &
    Tomlin, Math. Programming 2, 1972): the entering column's spike —
    its image after L and the earlier updates, which {!ftran_pattern}
    keeps — replaces the leaving column of U, that step moves to the
    end of the pivot order, and one sparse row eta eliminates the
    leaving row. An update stores the spike and the row eta, not the
    whole FTRANed column, so the update file grows slowly.
    {!should_refactor} requests a rebuild once the update fill outgrows
    the base factorization (amortized-optimal), a hard update cap is
    hit, or an update fails the stability test (the new diagonal must
    equal the pivot element times the old one). A non-finite iterate
    is handled one level up: the simplex health guard refactorizes,
    which rebuilds the base factors from scratch.

    All factors live in flat unboxed arenas ([int array] /
    [Float.Array.t]) that are reused across refactorizations, so the
    apply paths (FTRAN / BTRAN / update) allocate nothing once the
    arenas have grown to their working size. The Markowitz working
    matrix behind {!refactorize} is kept too: its per-row entry arrays
    and per-column candidate lists start at four slots and double, so
    a basis row of a few entries costs a few words, not an arena-sized
    block. {!reset} re-arms a factor for another basis size without
    releasing any of it. *)

exception Singular
(** The column set is not a basis (structurally or numerically). *)

type t

type stats = {
  refactorizations : int;  (** base-factorization rebuilds *)
  fill_nnz : int;  (** base-factor nonzeros after the last rebuild *)
  basis_nnz : int;  (** basis-column nonzeros at the last rebuild *)
  updates : int;  (** Forrest–Tomlin updates since {!create} / {!reset} *)
  update_nnz : int;
      (** nonzeros those updates stored: row-eta entries plus the spike
          entries written into U *)
  factor_s : float;  (** cumulative seconds inside {!refactorize} *)
}
(** Counters since {!create} or the last {!reset}. *)

val create : m:int -> t
(** A factorization of the [m x m] identity (the all-logical basis). *)

val reset_identity : t -> unit
(** Forget everything: the represented basis is the identity again.
    Counters are kept — they describe the solve, not the basis. *)

val reset : t -> m:int -> unit
(** Re-arm [f] as what [create ~m] returns — the identity on [m] rows,
    counters at zero, the default refactorization policy — keeping its
    arenas and Markowitz working matrix when [m] fits its capacity
    (past it, the per-row arrays are reallocated at least twice as
    large and the working matrix is remade on the next
    {!refactorize}). Costs O(m), not O(capacity). This is how the
    revised simplex's per-domain workspace reuses one factor across
    solves. *)

val refactorize :
  t ->
  nnz:(int -> int) ->
  load:(int -> int array -> float array -> int) ->
  row_of:int array ->
  unit
(** Rebuild the base factorization from the current basis columns and
    drop the update file. [nnz slot] bounds column [slot]'s entry
    count; [load slot idx vals] writes its (row, value) entries into
    the provided buffers and returns how many (duplicate rows are
    accumulated). On success [row_of.(slot)] receives the pivot row
    assigned to column [slot] — the caller's new basis-position map.
    Raises {!Singular} (leaving the factor in the identity state) when
    the columns are not an invertible set. *)

val ftran : t -> float array -> unit
(** Solve [B z = w] in place ([w] dense, length [m]). Allocation-free. *)

val btran : t -> float array -> unit
(** Solve [B^T y = c] in place. Allocation-free. *)

val update : t -> pivot_row:int -> float array -> unit
(** [update f ~pivot_row w] absorbs a basis change: the column at basis
    position [pivot_row] is replaced by the column last passed to
    {!ftran_pattern}, whose result is [w] (only [w.(pivot_row)], the
    pivot element, is read: the stability test compares the new
    diagonal with it times the old one, and a mismatch makes
    {!should_refactor} true). Cost follows the spike, the leaving row
    of U and the entries the row eta reaches. Allocation-free apart
    from arena growth. Raises [Invalid_argument] unless an
    {!ftran_pattern} ran since the last update, rebuild or reset. *)

val ftran_pattern : t -> float array -> int array -> int -> int
(** [ftran_pattern f w idx n] computes {!ftran}[ f w] for a [w] that
    is zero outside the rows listed in [idx.(0 .. n-1)] (duplicates
    tolerated). Tracks fill through the factors and returns the output
    pattern size, rewriting [idx] in place (duplicate-free; an entry
    may hold an exact zero after cancellation, so consumers re-check
    values). Keeps the column's spike (its image after L and the row
    etas) for a following {!update}. While the previous call's result
    held at most a tenth of the rows, worklist heaps walk only the
    reached steps of L and of U's column view, so the cost follows the
    entries touched, not [m]; past that, plain loops walk every step.
    Both orders do the same floating-point operations in the same
    sequence and list the pattern in the same order, so the result
    never depends on which one ran. *)

val should_refactor : t -> bool
(** Whether a rebuild is due: an update since the last one failed the
    stability test, or the update file has outgrown the base
    factorization (update fill > base fill + m, or 512 updates). *)

val set_refactor_every : t -> int option -> unit
(** Diagnostic override: [Some p] forces {!should_refactor} after [p]
    updates ([Some 1] = fresh factorization every pivot, the
    equivalence-test anchor) in place of the fill and cap rules (a
    failed stability test still forces it); [None] restores the
    policy. *)

val updates_since_refactor : t -> int
val stats : t -> stats
