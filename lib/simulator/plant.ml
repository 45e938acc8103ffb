open Numerics

type t = { profile : Demandspace.Profile.t; rng : Rng.t }

let create ~profile rng = { profile; rng }
let next_demand t = Demandspace.Profile.sample t.profile t.rng

(* Batched ids for the simulation hot path. *)
let sample_demands_into t buf ~n =
  Demandspace.Profile.sample_many t.profile t.rng buf ~n
