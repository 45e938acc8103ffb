(** Deterministic pseudo-random number generation (xoshiro256++ seeded via
    splitmix64).

    Every stochastic component of the reproduction takes an explicit [Rng.t]
    so that experiments are replayable from a single integer seed and
    parallel streams can be derived deterministically with {!split}. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** Generator initialised from an integer seed (any value is acceptable,
    including 0: the seed is whitened through splitmix64). *)

val split : t -> index:int -> t
(** [split t ~index] derives a statistically independent substream; distinct
    indices from the same parent state yield distinct streams. Advances the
    parent. *)

val split_seed : t -> index:int -> int
(** The seed of the substream [split t ~index] builds:
    [create ~seed:(split_seed t ~index)] is that same stream. Advances the
    parent by one draw, like {!split}, but allocates no generator, so a
    caller can draw the seeds in order and build each generator on the
    domain that uses it. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val draws : t -> int
(** Number of raw 64-bit draws this generator has produced so far
    (monotonically increasing; {!split} children start at 0). Equal seeds
    driven through the same code yield equal draw counts — the
    reproducibility regression guard the telemetry layer reports. Note
    that {!int} consumes at least one draw but may consume more
    (rejection sampling). *)

val total_draws : unit -> int
(** Process-wide draw total across every generator ever created, for run
    telemetry (e.g. draws consumed by one experiment = difference around
    the call): the sum of every domain's {!local_draws}. Exact whenever
    every other domain's draws happen-before the call — after any
    [Exec.Pool.run] returns, and on any purely sequential read — with no
    atomic operation per draw. *)

val local_draws : unit -> int
(** Cumulative raw draws made by the calling domain across every
    generator it has driven (never reset). A computation confined to one
    domain consumes exactly [local_draws () - before] draws, which is
    how the assessment service meters the cost of a single request:
    each served request evaluates wholly on one pool worker, so the
    per-domain delta is exact. *)

val float : t -> float
(** Uniform draw in [0, 1) with 53 bits of precision. *)

val int : t -> int -> int
(** [int t bound] is an unbiased uniform draw in [0, bound).
    Raises [Invalid_argument] if [bound <= 0]. *)

val bool : t -> p:float -> bool
(** Bernoulli draw; [p] is clamped to [0, 1]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [lo, hi). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)
