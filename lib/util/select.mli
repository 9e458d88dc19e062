(** Top-k selection and small array utilities shared by the
    recommenders (PER retrieves each user's top-k items; the
    Frank–Wolfe oracle picks the k best gradient coordinates). *)

val top_k : int -> float array -> int array
(** [top_k k scores] returns the indices of the [k] largest scores in
    decreasing score order (ties broken by lower index). If
    [k >= length scores] all indices are returned, sorted by score. *)

val argmax : float array -> int
(** Index of the maximum (first on ties). Raises [Invalid_argument] on
    the empty array. *)

val argmin : float array -> int

val sum : float array -> float
val normalize : float array -> float array
(** Scales a non-negative array to sum to 1; returns a uniform array
    when the sum is zero. *)

val float_range : float -> float -> int -> float array
(** [float_range lo hi steps] returns [steps] evenly spaced values from
    [lo] to [hi] inclusive ([steps >= 2]). *)
