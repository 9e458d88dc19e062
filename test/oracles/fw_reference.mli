(** The seed prototype of [Svgic_lp.Pairwise_fw]: dense per-pair
    weight scans, a fixed iteration count and no certificate. The tests
    compare the production engine's gradient and solves against it. *)

val objective :
  Svgic_lp.Pairwise_fw.problem -> float array array -> float
(** Exact objective (with true [min]) of a feasible point. *)

val gradient :
  Svgic_lp.Pairwise_fw.problem ->
  smoothing:float ->
  float array array ->
  float array array ->
  unit
(** [gradient p ~smoothing x grad] fills the preallocated [grad] with
    the soft-min gradient at [x]. *)

val solve :
  ?iterations:int ->
  ?smoothing:float ->
  Svgic_lp.Pairwise_fw.problem ->
  Svgic_lp.Pairwise_fw.solution
(** Fixed-iteration dense solve (default 400 iterations, smoothing
    0.05) from the uniform point; [gap] and [ub] are [infinity]. *)
