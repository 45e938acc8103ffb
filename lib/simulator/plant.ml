open Numerics

type event = Demand of Demandspace.Demand.t | Idle

type t = {
  profile : Demandspace.Profile.t;
  demand_rate : float;
  rng : Rng.t;
}

let create ?(demand_rate = 1.0) ~profile rng =
  if demand_rate <= 0.0 || demand_rate > 1.0 then
    invalid_arg "Plant.create: demand_rate must lie in (0, 1]";
  { profile; demand_rate; rng }

let step t =
  if Rng.bool t.rng ~p:t.demand_rate then
    Demand (Demandspace.Profile.sample t.profile t.rng)
  else Idle

let next_demand t = Demandspace.Profile.sample t.profile t.rng

(* Batched ids for the simulation hot path. Only valid for a pure demand
   sequence (demand_rate = 1.0): with idle periods the idle draws
   interleave with the profile draws, so a batch would consume the RNG
   differently from repeated [next_demand]. *)
let sample_demands_into t buf ~n =
  if t.demand_rate < 1.0 then
    invalid_arg "Plant.sample_demands_into: plant has idle periods";
  Demandspace.Profile.sample_many t.profile t.rng buf ~n
