(** The seed implementation of [Svgic.Algorithms.avg_d]: serial, with
    an option-returning candidate evaluator and a full m·k candidate
    rescan per iteration. The determinism oracle for the champion-
    tracking fast path, which must reproduce it bit for bit. *)

val avg_d :
  ?r:float ->
  ?size_cap:int ->
  Svgic.Instance.t ->
  Svgic.Relaxation.t ->
  Svgic.Config.t
(** Same arguments and defaults as [Svgic.Algorithms.avg_d]. *)
