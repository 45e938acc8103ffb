(** Streaming mean/variance (Welford's algorithm).

    Monte-Carlo sweeps in the simulator can run millions of replications;
    this accumulator produces numerically stable single-pass moments without
    storing the samples. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val mean : t -> float
(** NaN when empty. *)

val variance : t -> float
(** Unbiased variance; NaN when fewer than two observations. *)

val std : t -> float

val min_value : t -> float

val merge : t -> t -> t
(** Combine two accumulators (parallel reduction); exact in the same sense
    as Welford's update. *)
