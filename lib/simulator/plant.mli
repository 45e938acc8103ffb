(** The controlled plant as a demand source.

    The paper's footnote 2: "Our analysis refers to systems whose operation
    can be seen as a series of demands, possibly separated by idle
    periods." The plant emits demands drawn from the operational profile,
    optionally interleaved with idle steps. *)

type event = Demand of Demandspace.Demand.t | Idle

type t

val create : ?demand_rate:float -> profile:Demandspace.Profile.t -> Numerics.Rng.t -> t
(** [demand_rate] is the per-step probability that the plant state requires
    intervention (default 1.0: a pure demand sequence). *)

val step : t -> event
(** One operational step. *)

val next_demand : t -> Demandspace.Demand.t
(** Skip idle periods and produce the next demand. *)

val sample_demands_into : t -> int array -> n:int -> unit
(** Fill [buf.(0 .. n-1)] with the ids of the next [n] demands in one
    batch. Byte-compatible with [n] {!next_demand} calls — the RNG draw
    sequence is identical — so hot loops can sample in blocks without
    changing any output. Raises [Invalid_argument] if the plant has idle
    periods ([demand_rate < 1.0]), where batching would reorder draws. *)
