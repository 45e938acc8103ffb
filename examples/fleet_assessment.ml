(* Fleet-assessment example: a regulator monitors a fleet of plants whose
   protection systems were independently developed by the same supplier.
   From per-plant failure counts alone it (1) detects that the PFD varies
   across developments (over-dispersion), (2) recovers the mean and spread
   of the PFD distribution, and (3) uses the recovered moments to set a
   confidence bound in the paper's mu + k*sigma form — the whole Section 5
   apparatus driven by field data instead of elicited parameters.

   Run with:  dune exec examples/fleet_assessment.exe *)

let () =
  let rng = Numerics.Rng.create ~seed:77 in

  (* Ground truth, unknown to the regulator. *)
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:40 ~height:40 ~n_faults:12
      ~max_extent:5 ~p_lo:0.08 ~p_hi:0.35
      ~profile:(Demandspace.Profile.uniform ~size:(40 * 40))
  in
  let u = Demandspace.Space.to_universe space in

  (* The fleet: 250 plants, each with its own independently developed
     1oo2 system, each observed over 30000 demands. *)
  let systems = Simulator.Fleet.deploy_pairs rng space ~plants:250 in
  let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant:30_000 in

  Fmt.pr "fleet: %d plants, %d total failures, pooled rate %.5f@."
    (Simulator.Fleet.size fleet)
    (Simulator.Fleet.total_failures fleet)
    (Simulator.Fleet.pooled_rate fleet);

  (* Step 1: is one PFD enough for the whole fleet? *)
  let d = Simulator.Fleet.dispersion fleet in
  Fmt.pr "@.over-dispersion of per-plant counts: %.1f@."
    d.Simulator.Fleet.overdispersion;
  if d.Simulator.Fleet.overdispersion > 1.5 then
    Fmt.pr
      "  -> the PFD varies across developments: per-plant reliability is a \
       DISTRIBUTION, as the paper's model says@."
  else Fmt.pr "  -> counts look homogeneous@.";

  (* Step 2: recover the distribution's moments from counts. *)
  let mu_hat, var_hat = Simulator.Fleet.estimate_pfd_moments fleet in
  Fmt.pr "@.method-of-moments recovery vs (hidden) model values:@.";
  Fmt.pr "  mean PFD:  estimated %.5f   model mu2    %.5f@." mu_hat
    (Core.Moments.mu2 u);
  Fmt.pr "  std PFD:   estimated %.5f   model sigma2 %.5f@." (sqrt var_hat)
    (Core.Moments.sigma2 u);

  (* Step 3: a Section 5 style confidence bound from the recovered
     moments. *)
  let k = Numerics.Normal_dist.ppf 0.99 in
  let bound = mu_hat +. (k *. sqrt var_hat) in
  Fmt.pr "@.99%% mu+k*sigma bound from field data: %.5f@." bound;
  let model_bound = Core.Normal_approx.pair_bound u ~k in
  Fmt.pr "   (model value: %.5f)@." model_bound;

  (* Step 4: sanity-check against the truth the simulation can see. *)
  let s = Simulator.Fleet.true_pfd_summary fleet in
  let below =
    Array.fold_left
      (fun acc r ->
        if r.Simulator.Fleet.system_pfd <= bound then acc + 1 else acc)
      0
      (Simulator.Fleet.records fleet)
  in
  Fmt.pr "@.oracle: true per-plant PFDs have mean %.5f, std %.5f, max %.5f@."
    s.Numerics.Stats.mean s.Numerics.Stats.std s.Numerics.Stats.max;
  Fmt.pr "  fraction of plants whose true PFD meets the bound: %d/%d@." below
    (Simulator.Fleet.size fleet);

  (* Step 5: what the regulator should expect of the next delivered
     plant, combining the fleet-informed moments with the paper's eq. (12)
     if only pmax evidence were available instead. *)
  Fmt.pr
    "@.had the regulator instead only trusted the supplier's pmax (%.3f), \
     eq. (12) would cap the claimable pair bound at %.5f times the \
     single-version bound@."
    (Core.Universe.pmax u)
    (Core.Bounds.sigma_ratio_bound (Core.Universe.pmax u))
