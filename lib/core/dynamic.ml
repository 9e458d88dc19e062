type user_profile = {
  pref : float array;
  tau_out : int -> int -> float;
  tau_in : int -> int -> float;
  friends : int array;
}
