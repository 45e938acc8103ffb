(** Numerical differentiation.

    The analytic derivatives of the diversity-gain ratio (Appendices A and B
    of the paper) are cross-validated against these finite-difference
    estimates in the test suite; they are also the fallback for models with
    no closed-form gradient (correlated faults, overlap). *)

val central : (float -> float) -> float -> float
(** Central difference, relative step 1e-6. *)

val richardson : (float -> float) -> float -> float
(** Richardson-extrapolated central difference (relative step 1e-3),
    O(h^4) accurate. *)

val partial : (float array -> float) -> float array -> int -> float
(** Partial derivative of a multivariate function in coordinate [i]
    (central difference, relative step 1e-6). Does not mutate the input
    point. *)

val gradient : (float array -> float) -> float array -> float array
(** All partial derivatives. *)

val second : (float -> float) -> float -> float
(** Second derivative by the three-point stencil (relative step 1e-4). *)
