(** Parameter grids for experiment sweeps and simple quadrature. *)

val linspace : lo:float -> hi:float -> n:int -> float array
(** [n >= 2] evenly spaced points from [lo] to [hi] inclusive. *)

val logspace : lo:float -> hi:float -> n:int -> float array
(** Points evenly spaced in log-space; requires 0 < lo < hi. *)

val arange : lo:float -> hi:float -> step:float -> float array
(** Points lo, lo+step, ... strictly below [hi]. *)

(** Element-wise map over two equal-length arrays. *)

val trapezoid : xs:float array -> ys:float array -> float
(** Trapezoidal-rule integral of the sampled function. *)
