(* Plant-protection example: the full Fig. 1 system, end to end.

   A 2-D demand space (two sensed plant variables) carries failure regions
   shaped like those reported in the literature (Fig. 2). Two software
   versions are developed independently by sampling the fault-creation
   process, installed as the two channels of a 1-out-of-2 protection
   system, and the plant then drives the system through operational
   demands. The observed failure rates are compared with the model.

   Run with:  dune exec examples/plant_protection.exe *)

let () =
  let rng = Numerics.Rng.create ~seed:2001 in
  let width = 64 and height = 32 in

  (* The demand space: demands near the centre of the operating envelope
     are more frequent (zipf-ordered profile). *)
  let profile = Demandspace.Profile.zipf ~size:(width * height) ~exponent:0.5 in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width ~height ~n_faults:14
      ~max_extent:5 ~p_lo:0.03 ~p_hi:0.25 ~profile
  in
  Fmt.pr "%a@." Demandspace.Space.pp space;

  (* Show the failure-region geometry. *)
  List.iter print_endline
    (Demandspace.Genspace.render ~width ~height space);

  (* Develop the two channels independently — two teams, same process. *)
  let team_a = Numerics.Rng.split rng ~index:1 in
  let team_b = Numerics.Rng.split rng ~index:2 in
  let va = Simulator.Devteam.develop team_a space in
  let vb = Simulator.Devteam.develop team_b space in
  Fmt.pr "@.channel A: %a@." Demandspace.Version.pp va;
  Fmt.pr "channel B: %a@." Demandspace.Version.pp vb;
  Fmt.pr "common faults: [%s]@."
    (String.concat ","
       (List.map string_of_int (Demandspace.Version.common_faults va vb)));

  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" va)
      (Simulator.Channel.create ~name:"B" vb)
  in
  Fmt.pr "@.%a@." Simulator.Protection.pp system;
  Fmt.pr "system true PFD (region intersection): %.6f@."
    (Simulator.Protection.true_pfd system);

  (* A year of operation at one demand per day would be ~365 demands; run
     a long accelerated campaign instead. *)
  let stats =
    Simulator.Runner.run
      (Numerics.Rng.split rng ~index:3)
      ~system ~demand_count:500_000
  in
  Fmt.pr "@.operational campaign:@.%a@." Simulator.Runner.pp_stats stats;

  (* Compare the population-level model prediction with this particular
     pair, and with the average over many developments. *)
  let u = Demandspace.Space.to_universe space in
  Fmt.pr "@.model view of the process:@.";
  Fmt.pr "  E(version PFD) = %.6f, E(pair PFD) = %.6f@." (Core.Moments.mu1 u)
    (Core.Moments.mu2 u);
  let emp =
    let rng = Numerics.Rng.split rng ~index:4 in
    let systems = Simulator.Fleet.deploy_pairs rng space ~plants:200 in
    Simulator.Fleet.pooled_rate
      (Simulator.Fleet.observe rng systems ~demands_per_plant:5_000)
  in
  Fmt.pr "  average observed pair PFD over 200 fresh developments: %.6f@." emp;
  Fmt.pr
    "  (a single developed pair, like the one above, deviates from the \
     population mean — exactly why the paper studies distributions, not \
     just averages)@."
