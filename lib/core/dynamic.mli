(** Extension F: the dynamic scenario — users join and leave the
    shopping session over time (Section 5).

    {!Serve} runs such a session: its structural ticks apply joins and
    leaves, and every touched shard is re-solved warm. This module
    holds the profile a [Serve.Join] event carries. *)

type user_profile = {
  pref : float array;  (** length m *)
  tau_out : int -> int -> float;
      (** external friend id -> item -> τ(new, friend, item) *)
  tau_in : int -> int -> float;
      (** external friend id -> item -> τ(friend, new, item) *)
  friends : int array;  (** existing external user ids (bidirectional) *)
}
