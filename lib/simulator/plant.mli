(** The controlled plant as a demand source.

    The paper's footnote 2: "Our analysis refers to systems whose operation
    can be seen as a series of demands, possibly separated by idle
    periods." Idle steps change no per-demand quantity, so the plant
    emits only the demands, drawn from the operational profile. *)

type t

val create : profile:Demandspace.Profile.t -> Numerics.Rng.t -> t

val next_demand : t -> Demandspace.Demand.t
(** The next demand. *)

val sample_demands_into : t -> int array -> n:int -> unit
(** Fill [buf.(0 .. n-1)] with the ids of the next [n] demands in one
    batch. Byte-compatible with [n] {!next_demand} calls — the RNG draw
    sequence is identical — so hot loops can sample in blocks without
    changing any output. *)
