(** Sparse basis factorization behind the revised simplex FTRAN/BTRAN
    entry points.

    A [t] represents the inverse of one basis matrix [B] (square, [m]
    rows; columns are opaque slots [0..m-1] read back through caller
    callbacks) as a Markowitz-ordered sparse LU factorization with
    threshold partial pivoting. Pivots are chosen to minimize the
    Markowitz fill metric [(r_i - 1)(c_j - 1)] among entries within a
    relative threshold of their column's magnitude, after a fill-free
    singleton elimination pre-pass that triangularizes the unit-heavy
    bases these LPs produce. FTRAN/BTRAN cost is proportional to the
    L + U fill.

    Basis changes are absorbed by bounded eta-append updates (the
    product-form update on top of the base factorization — the
    Forrest-Tomlin family member that needs no row-wise U access): each
    pivot appends one eta built from the FTRANed entering column, and
    {!should_refactor} requests a rebuild once the update file's fill
    outgrows the base factorization (amortized-optimal) or a hard
    update cap is hit. Instability is handled one level up: the simplex
    health guard refactorizes on a non-finite iterate, which rebuilds
    the base factors from scratch.

    All factors live in flat unboxed arenas ([int array] /
    [Float.Array.t]) that are reused across refactorizations, so the
    apply paths (FTRAN / BTRAN / update) allocate nothing. The
    Markowitz working matrix behind {!refactorize} is kept too: its
    per-row entry arrays and per-column candidate lists start at four
    slots and double, so a basis row of a few entries costs a few
    words, not an arena-sized block. {!reset} re-arms a factor for
    another basis size without releasing any of it. *)

exception Singular
(** The column set is not a basis (structurally or numerically). *)

type t

type stats = {
  refactorizations : int;  (** base-factorization rebuilds *)
  fill_nnz : int;  (** base-factor nonzeros after the last rebuild *)
  basis_nnz : int;  (** basis-column nonzeros at the last rebuild *)
  eta_appends : int;  (** update etas appended since {!create} / {!reset} *)
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

val update_pattern : t -> pivot_row:int -> float array -> int array -> int -> unit
(** [update_pattern f ~pivot_row w idx n] absorbs a basis change: the
    column at basis position [pivot_row] is replaced by the column
    whose FTRANed image is [w]. [idx.(0 .. n-1)] must list every row
    where [w] is nonzero, without duplicates — exactly what
    {!ftran_pattern} returns. Appends one update eta (entries below the
    drop tolerance discarded, the rest in [idx] order); O(pattern).
    Allocation-free apart from arena growth. *)

val ftran_pattern : t -> float array -> int array -> int -> int
(** [ftran_pattern f w idx n] computes {!ftran}[ f w] for a [w] that
    is zero outside the rows listed in [idx.(0 .. n-1)] (duplicates
    tolerated). Tracks fill through the factors and returns the output
    pattern size, rewriting [idx] in place (duplicate-free; an entry
    may hold an exact zero after cancellation, so consumers re-check
    values). While the previous call's result held at most a tenth of
    the rows, worklist heaps walk only the reached steps of L and of
    the transposed U, so the cost follows the entries touched, not
    [m]; past that, plain loops walk every step. Both orders do the
    same floating-point operations in the same sequence and list the
    pattern in the same order, so the result never depends on which
    one ran. *)

val should_refactor : t -> bool
(** Whether the update file has outgrown the base factorization
    (update fill > base fill + m, or 512 updates). *)

val set_refactor_every : t -> int option -> unit
(** Diagnostic override: [Some p] forces {!should_refactor} after [p]
    updates ([Some 1] = fresh factorization every pivot, the
    equivalence-test anchor); [None] restores the policy. *)

val updates_since_refactor : t -> int
val stats : t -> stats
