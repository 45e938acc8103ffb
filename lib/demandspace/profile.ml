open Numerics

type t = { alias : Alias.t }

let of_weights weights = { alias = Alias.create weights }

let uniform ~size =
  if size <= 0 then invalid_arg "Profile.uniform: size must be positive";
  of_weights (Array.make size 1.0)

let zipf ~size ~exponent =
  if size <= 0 then invalid_arg "Profile.zipf: size must be positive";
  of_weights
    (Array.init size (fun i -> (1.0 /. float_of_int (i + 1)) ** exponent))

let random rng ~size ~alpha =
  if size <= 0 then invalid_arg "Profile.random: size must be positive";
  of_weights (Sampler.dirichlet rng ~alphas:(Array.make size alpha))

let peaked ~size ~peak ~mass =
  if size <= 0 then invalid_arg "Profile.peaked: size must be positive";
  if peak < 0 || peak >= size then invalid_arg "Profile.peaked: peak out of range";
  if not (0.0 < mass && mass < 1.0) then
    invalid_arg "Profile.peaked: mass must lie strictly in (0, 1)";
  let rest = (1.0 -. mass) /. float_of_int (max 1 (size - 1)) in
  of_weights (Array.init size (fun i -> if i = peak then mass else rest))

let size t = Alias.size t.alias

let probability t demand = Alias.probability t.alias (Demand.to_int demand)

let sample t rng = Demand.of_int (Alias.sample t.alias rng)

let sample_many t rng buf ~n = Alias.sample_many t.alias rng buf ~n

let measure t bitset =
  if Bitset.length bitset <> size t then
    invalid_arg "Profile.measure: bitset over a different space";
  let acc = Kahan.create () in
  Bitset.iter (fun i -> Kahan.add acc (Alias.probability t.alias i)) bitset;
  Kahan.total acc

let probabilities t = Alias.probabilities t.alias
