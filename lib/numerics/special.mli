(** Special functions implemented to double precision.

    The OCaml standard library does not ship [erf]/[erfc]; the paper's
    Section 5 confidence-bound machinery needs the normal CDF and its
    inverse, which we build on these primitives. The implementations use a
    positive-term Maclaurin series for small arguments and Lentz's continued
    fraction for the tails, giving close to machine precision over the whole
    real line. *)

val sqrt2 : float
(** sqrt(2). *)

val erf : float -> float
(** Error function. *)

val erfc : float -> float
(** Complementary error function, accurate in the far tail (no cancellation
    for large positive arguments). *)

val log_gamma : float -> float
(** Natural log of the Gamma function (Lanczos, g=7). *)

val log_factorial : int -> float
(** [log n!], cached for n < 256. Raises [Invalid_argument] on negatives. *)

val log_choose : int -> int -> float
(** Log binomial coefficient; [neg_infinity] outside the valid range. *)

val logsumexp : float array -> float
(** Numerically stable log of a sum of exponentials. *)
