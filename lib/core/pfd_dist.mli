(** Exact and grid-approximated distributions of the PFD random variables
    Theta_1 (one version) and Theta_2 (a 1-out-of-2 pair).

    The paper works with means, variances and a normal approximation because
    the full distribution has 2^n support points; on a finite universe we
    can do better and compute it exactly (small n) or on a value grid
    (large n), which is what lets experiments E06/E15 quantify how good the
    paper's Section 5 normal approximation actually is. *)

type t
(** A finite discrete distribution on [0, 1] (sorted support, merged
    duplicates, normalised mass, precomputed CDF). *)

val of_mass : (float * float) list -> t
(** Build from (value, mass) pairs; masses are normalised, zero-mass points
    dropped, equal support points merged (support ordered by
    [Float.compare]). Raises [Invalid_argument] when no positive mass
    remains, or when any support point or mass is NaN. *)

val of_sorted_arrays : float array -> float array -> t
(** Build from parallel support/mass arrays that are already sorted and
    coalesced: after dropping nonpositive-mass points the support must be
    strictly increasing ([Invalid_argument] otherwise, as for NaN entries,
    length mismatch, or no positive mass). Produces bit-identically the
    distribution [of_mass] would, in O(m) instead of O(m log m) — the
    constructor the convolvers use to skip the list round-trip and sort
    of an already-sorted support. *)

val support : t -> float array
val masses : t -> float array

val size : t -> int
(** Number of distinct support points. *)

val mean : t -> float
val variance : t -> float
val std : t -> float

val cdf : t -> float -> float
(** P(X <= x), O(log n). *)

val sf : t -> float -> float
(** P(X > x). *)

val quantile : t -> float -> float
(** Smallest support point x with CDF(x) >= alpha — the "upper bound not
    exceeded with a set probability" of Section 3. *)

val prob_positive : t -> float
(** P(X > 0): for the pair distribution this equals P(N2 > 0) when all q_i
    are positive. *)

val sample : t -> Numerics.Rng.t -> float
(** Draw from the distribution by inverse transform. *)

val max_exact_faults : int
(** Largest universe size accepted by exact enumeration (22: 4M support
    points before merging). *)

val exact_of_vectors : probs:float array -> values:float array -> unit -> t
(** Exact distribution of a sum of independent two-point variables taking
    value [values.(i)] with probability [probs.(i)], else 0.

    One sequential doubling pass — bit-identical values to the legacy
    kernel, with preallocated ping-pong buffers (no per-fault
    allocation) and an {!of_sorted_arrays}-style finalisation instead of
    the of_mass list round-trip.

    Boundary policy (shared by every [*_of_vectors] entry point):
    reject. Raises [Invalid_argument] naming the function and the index
    when a [probs] entry is NaN or outside [0, 1], when a [values] entry
    is not finite or is negative, on a length mismatch, and past
    {!max_exact_faults} faults. *)

val exact_of_vectors_naive : probs:float array -> values:float array -> unit -> t
(** The historical allocating doubling pass (fresh buffers and two
    [Array.sub] per fault, of_mass finalisation), retained as the
    reference side of the fast-vs-legacy differential oracle.
    Bit-identical to {!exact_of_vectors}, same input policy. *)

val exact_single : Universe.t -> t
(** Exact distribution of Theta_1. *)

val exact_pair : Universe.t -> t
(** Exact distribution of Theta_2 (introduction probabilities p_i^2). *)

val exact_nk : Universe.t -> channels:int -> t
(** Exact distribution of the PFD of a 1-out-of-N system. *)

val grid_of_vectors :
  probs:float array -> values:float array -> bins:int -> unit -> t
(** Grid convolution: every region measure is rounded to a multiple of
    total_q/(bins-1); the support displacement is at most n*step/2 (the
    support can therefore extend slightly beyond total_q — no mass is
    ever clamped to the top bin). Handles thousands of faults. Same
    input policy as {!exact_of_vectors}, plus [bins >= 2].

    Faults sharing a shift are coalesced into one binomial block via the
    Poisson-binomial count recurrence, so the dense sweep runs once per
    distinct shift instead of once per fault, in place over a single
    array. Versus {!grid_of_vectors_naive} the block coalescing both
    associates same-shift products differently and reorders the dense
    passes by ascending shift: the two paths agree to rounding (see
    EXPERIMENTS.md for the tolerance policy), exactly bit-identical only
    when every shift is unique and the faults already appear in
    ascending-shift order. *)

val grid_of_vectors_naive :
  probs:float array -> values:float array -> bins:int -> unit -> t
(** The historical one-dense-sweep-per-fault grid pass, retained as the
    reference side of the fast-vs-legacy differential oracle. Same
    rounding, sizing and input policy as {!grid_of_vectors}. *)

val grid_single : Universe.t -> bins:int -> t
val grid_pair : Universe.t -> bins:int -> t

val single : Universe.t -> t
(** Exact when the universe is small enough, otherwise a 4096-bin grid. *)

val pair : Universe.t -> t
