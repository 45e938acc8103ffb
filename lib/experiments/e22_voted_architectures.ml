(* E22 — extension: M-out-of-N voted architectures under the fault-creation
   model, validated against the executable adjudicator. A protection
   function wants 1-out-of-N (any channel can trip the plant); a control
   function that must not trip spuriously wants majority voting — the
   model quantifies what the vote costs in PFD terms. *)

let run ~seed =
  let rng = Numerics.Rng.create ~seed in
  let u =
    Core.Universe.uniform_random
      (Numerics.Rng.split rng ~index:0)
      ~n:15 ~p_lo:0.02 ~p_hi:0.3 ~total_q:0.4
  in
  let k = Numerics.Normal_dist.ppf 0.99 in
  let architectures =
    [
      Core.Voting.create ~channels:1 ~required:1;
      Core.Voting.one_out_of_two;
      Core.Voting.create ~channels:3 ~required:1;
      Core.Voting.two_out_of_three;
      Core.Voting.create ~channels:4 ~required:2;
      Core.Voting.create ~channels:5 ~required:3;
    ]
  in
  let rows =
    List.map
      (fun v ->
        [
          Fmt.str "%a" Core.Voting.pp v;
          Report.Table.float (Core.Voting.mu v u);
          Report.Table.float (Core.Voting.sigma v u);
          Report.Table.float (Core.Voting.confidence_bound v u ~k);
          Report.Table.float (Core.Voting.p_some_system_fault v u);
          Report.Table.float
            (Core.Pfd_dist.quantile (Core.Voting.pfd_dist v u) 0.99);
        ])
      architectures
  in
  let table =
    Report.Table.of_rows
      ~title:"Voted architectures from one development process (99% bounds)"
      ~headers:
        [ "architecture"; "mu"; "sigma"; "mu+k*sigma"; "P(system-level fault)"; "exact q99" ]
      rows
  in
  (* Consistency with the core model and with the executable simulator. *)
  let mu_1oo2_voting = Core.Voting.mu Core.Voting.one_out_of_two u in
  let space =
    Demandspace.Genspace.disjoint_space
      (Numerics.Rng.split rng ~index:1)
      ~width:40 ~height:40 ~n_faults:10 ~max_extent:5 ~p_lo:0.1 ~p_hi:0.4
      ~profile:(Demandspace.Profile.uniform ~size:(40 * 40))
  in
  let su = Demandspace.Space.to_universe space in
  let sim_mu =
    let acc = Numerics.Welford.create () in
    let r = Numerics.Rng.split rng ~index:2 in
    for _ = 1 to 3000 do
      let mk () = Simulator.Channel.create ~name:"c" (Simulator.Devteam.develop r space) in
      let system = Simulator.Protection.voted ~required:2 [ mk (); mk (); mk () ] in
      Numerics.Welford.add acc (Simulator.Protection.true_pfd system)
    done;
    Numerics.Welford.mean acc
  in
  let checks =
    Report.Table.of_rows ~title:"Consistency checks"
      ~headers:[ "check"; "lhs"; "rhs" ]
      [
        [
          "Voting 1oo2 = paper's mu2";
          Report.Table.float mu_1oo2_voting;
          Report.Table.float (Core.Moments.mu2 u);
        ];
        [
          "Voting 2oo3 analytic vs simulated (3000 systems)";
          Report.Table.float (Core.Voting.mu Core.Voting.two_out_of_three su);
          Report.Table.float sim_mu;
        ];
      ]
  in
  Experiment.output ~tables:[ table; checks ]
    ~notes:
      [
        "2-out-of-3 is worse on PFD than 1-out-of-2 (a fault needs only 2 \
         of 3 channels to defeat the vote, probability ~3p^2 vs p^2) — the \
         price paid for spurious-trip protection, now quantified inside \
         the paper's model";
      ]
    ()

let experiment =
  Experiment.make ~id:"E22" ~paper_ref:"extension (Fig. 1 generalised)"
    ~description:"M-out-of-N voted architectures under the fault-creation model"
    run
