(** A developed program version: the set of potential faults it actually
    contains, with the induced failure behaviour.

    "Developing versions for a given application under a regime of separate
    development means choosing, randomly and independently, possible
    subsets of this set of possible faults" (Section 2.2). The *choosing*
    lives in the simulator's development-team model; this module represents
    the chosen subset and answers failure queries. *)

type t

val create : Space.t -> int list -> t
(** Version containing exactly the listed faults (deduplicated). *)

val perfect : Space.t -> t
(** The fault-free version. *)

val space : t -> Space.t
val present_faults : t -> int list

val failure_set : t -> Numerics.Bitset.t
(** Union of the version's failure regions. *)

val pfd : t -> float
(** True PFD: measure of the failure set (correct even under overlap). *)

val fails_on : t -> Demand.t -> bool
val has_fault : t -> int -> bool

val common_faults : t -> t -> int list
(** Faults present in both versions of a pair. *)

val pair_pfd : t -> t -> float
(** True PFD of the 1-out-of-2 pair. *)

val additive_pfd : t -> float
(** Sum of the present faults' region measures — the paper's formula under
    the non-overlap assumption; an upper bound on {!pfd} in general. *)

val pp : Format.formatter -> t -> unit
