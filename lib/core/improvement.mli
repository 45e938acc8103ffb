(** Process-improvement transformations (Section 4.2).

    The paper distinguishes two idealised kinds of development-process
    change — decreasing a single fault's probability (new V&V methods
    targeting one fault type) and decreasing all probabilities in the same
    proportion (uniformly greater care) — and notes any "obviously better"
    process change decomposes into a sequence of these. *)

type step =
  | Proportional of float
      (** Scale every p_i by the factor (the Appendix B parameter k). *)
  | Single of { index : int; factor : float }
      (** Scale only fault [index]'s probability (Section 4.2.1). *)
  | Per_fault of float array
      (** Arbitrary per-fault scaling — a general process change. *)

val apply_step : Universe.t -> step -> Universe.t
(** Raises [Invalid_argument] on negative factors, out-of-range indices, or
    scalings that push a probability above 1. *)

val apply : Universe.t -> step list -> Universe.t
(** Apply a sequence of changes left to right. *)

val is_obviously_better : Universe.t -> Universe.t -> bool
(** [is_obviously_better u u'] holds when moving from [u] to [u'] no p_i
    increases and at least one decreases — the paper's notion of an
    unambiguous process improvement. *)

type trajectory_point = {
  factor : float;
  mu1 : float;
  mu2 : float;
  risk_ratio : float;
  mean_gain : float;
}
(** Reliability measures of the transformed universe at one value of the
    improvement factor. *)

val trajectory :
  Universe.t -> step:(float -> step) -> factors:float array -> trajectory_point array
(** Evaluate the measures along a family of transformed universes (each
    applied to the *original* universe, not cumulatively). *)

val proportional_trajectory :
  Universe.t -> factors:float array -> trajectory_point array
(** The Appendix B sweep: factors are values of k. *)
