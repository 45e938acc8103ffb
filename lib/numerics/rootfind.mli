(** One-dimensional root finding and minimisation.

    Used to locate stationary points of the diversity-gain ratio for general
    universes (Appendix A studies where the partial derivatives change sign)
    and to invert monotone bound functions. Each search stops after at
    most 200 iterations. *)

val bisect : ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** Bisection on a bracketing interval. Raises [Invalid_argument] if
    [f lo] and [f hi] have the same (non-zero) sign. *)

val brent : ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** Brent's method (inverse quadratic interpolation with bisection
    safeguard); same bracketing contract as {!bisect}, faster convergence. *)

val minimize_golden :
  ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** Golden-section search for the minimiser of a unimodal function. *)
