type t = {
  arch : Core.Voting.t;
  space : Demandspace.Space.t;
  universe : Core.Universe.t;
  sim_seed : int;
  replications : int;
}

let arch t = t.arch
let space t = t.space
let universe t = t.universe
let sim_seed t = t.sim_seed
let replications t = t.replications

let create ~arch ~space ~sim_seed ~replications =
  if replications < 1 then
    invalid_arg "Scenario.create: replications must be >= 1";
  if not (Demandspace.Space.regions_disjoint space) then
    invalid_arg
      "Scenario.create: failure regions must be disjoint so the universe \
       abstraction is exact (the paper's non-overlap assumption)";
  { arch; space; universe = Demandspace.Space.to_universe space; sim_seed; replications }

(* Random paired scenario: a uniform-profile space whose failure regions
   are disjoint by construction (one interval per equal block of the
   demand space), so [Space.to_universe] is exact and every analytic
   quantity on the universe is directly comparable with simulation on
   the space. Introduction probabilities stay in [0.1, 0.65]: bounded
   away from 0 so the Monte-Carlo events the statistical comparators
   count are not vanishingly rare at the default replication counts. *)
let max_channels = 4
let max_faults = 6

let generate ?(replications = 1200) rng =
  let channels = 1 + Numerics.Rng.int rng max_channels in
  let required = 1 + Numerics.Rng.int rng channels in
  let arch = Core.Voting.create ~channels ~required in
  let n_faults = 1 + Numerics.Rng.int rng max_faults in
  let size = 60 + Numerics.Rng.int rng 161 in
  let block = size / n_faults in
  let faults =
    Array.init n_faults (fun i ->
        let width = 1 + Numerics.Rng.int rng (max 1 (block / 2)) in
        let lo = (block * i) + Numerics.Rng.int rng (block - width + 1) in
        let region =
          Demandspace.Region.interval ~space_size:size ~lo ~hi:(lo + width - 1)
        in
        (region, Numerics.Rng.uniform rng ~lo:0.1 ~hi:0.65))
  in
  let space =
    Demandspace.Space.create
      ~profile:(Demandspace.Profile.uniform ~size)
      ~faults
  in
  let sim_seed = 1 + Numerics.Rng.int rng 1_000_000 in
  create ~arch ~space ~sim_seed ~replications

let pp ppf t =
  Fmt.pf ppf "%a over %d faults on %d demands (sim_seed=%d, replications=%d)"
    Core.Voting.pp t.arch
    (Demandspace.Space.fault_count t.space)
    (Demandspace.Space.size t.space)
    t.sim_seed t.replications

let to_string t = Fmt.str "%a" pp t
