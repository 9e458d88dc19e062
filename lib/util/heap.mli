(** Mutable binary max-heap keyed by floats, used for top-k selection
    and for the priority queues in AVG-D's focal-parameter search. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

val peek : 'a t -> (float * 'a) option
(** Maximum-key entry without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the maximum-key entry. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Destructive: drains the heap, returning entries in decreasing key
    order. *)
