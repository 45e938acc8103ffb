open Numerics

(* Each oracle below pairs one analytic quantity (closed form on the
   universe) with an independent estimate of the same quantity —
   Monte Carlo over the abstract development model, full-stack concrete
   simulation over the demand space, or a second closed-form derivation —
   and the comparator appropriate to how the two sides were computed.
   See DESIGN.md "Cross-check matrix" for the full table. *)

(* ---- eqs. 1-3, 10 vs the sharded Monte Carlo harness ---- *)

let moments_vs_montecarlo =
  Oracle.make ~id:"moments-vs-montecarlo"
    ~description:
      "mu1/mu2 (eq. 1), P(N1>0)/P(N2>0) and the eq. 10 risk ratio vs \
       Simulator.Montecarlo.estimate"
    (fun s ->
      let u = Scenario.universe s in
      let r = Scenario.replications s in
      let bound = Core.Universe.total_q u in
      let est =
        Simulator.Montecarlo.estimate (Oracle.rng s ~salt:1) u ~replications:r
      in
      let n1 = Sim.count_positive est.Simulator.Montecarlo.theta1_samples in
      let n2 = Sim.count_positive est.theta2_samples in
      [
        ( "mu1 (eq. 1)",
          Compare.mean_z ~bound ~expected:(Core.Moments.mu1 u)
            ~sigma:(Core.Moments.sigma1 u) ~trials:r ~mean:est.theta1.mean () );
        ( "mu2 (eq. 1)",
          Compare.mean_z ~bound ~expected:(Core.Moments.mu2 u)
            ~sigma:(Core.Moments.sigma2 u) ~trials:r ~mean:est.theta2.mean () );
        ( "P(N1>0)",
          Compare.wilson ~expected:(Core.Fault_count.p_n1_pos u) ~successes:n1
            ~trials:r () );
        ( "P(N2>0)",
          Compare.wilson ~expected:(Core.Fault_count.p_n2_pos u) ~successes:n2
            ~trials:r () );
        ( "risk ratio (eq. 10)",
          Compare.ratio_wilson ~expected:(Core.Fault_count.risk_ratio u)
            ~num:n2 ~den:n1 ~trials:r () );
      ])

(* ---- Voting closed forms vs the abstract N-of-M sampler ---- *)

let voting_mu_vs_sim =
  Oracle.make ~id:"voting-mu-vs-sim"
    ~description:
      "Voting.mu (binomial defeat probabilities) vs abstract N-of-M \
       development sampling, z-tested against Voting.sigma"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let r = Scenario.replications s in
      let run = Sim.voted (Oracle.rng s ~salt:2) u ~arch ~replications:r in
      [
        ( "Voting.mu",
          Compare.mean_z
            ~bound:(Core.Universe.total_q u)
            ~expected:(Core.Voting.mu arch u)
            ~sigma:(Core.Voting.sigma arch u)
            ~trials:r ~mean:(Stats.mean run.Sim.pfds) () );
      ])

let voting_events_vs_sim =
  Oracle.make ~id:"voting-events-vs-sim"
    ~description:
      "Voting.p_some_system_fault and risk_ratio_vs_single (eq. 10 \
       generalised) vs abstract N-of-M sampling"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let r = Scenario.replications s in
      let run = Sim.voted (Oracle.rng s ~salt:3) u ~arch ~replications:r in
      [
        ( "p_some_system_fault",
          Compare.wilson
            ~expected:(Core.Voting.p_some_system_fault arch u)
            ~successes:run.Sim.system_faulty ~trials:r () );
        ( "risk_ratio_vs_single",
          Compare.ratio_wilson
            ~expected:(Core.Voting.risk_ratio_vs_single arch u)
            ~num:run.Sim.system_faulty ~den:run.Sim.single_faulty ~trials:r () );
      ])

let voting_dist_vs_closed_form =
  Oracle.make ~id:"voting-dist-vs-closed-form"
    ~description:
      "Voting.pfd_dist exact enumeration vs the direct closed forms \
       (Voting.mu/var/p_some_system_fault)"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let d = Core.Voting.pfd_dist arch u in
      [
        ("mean", Compare.approx (Core.Voting.mu arch u) (Core.Pfd_dist.mean d));
        ( "variance",
          Compare.approx ~abs:1e-15 (Core.Voting.var arch u)
            (Core.Pfd_dist.variance d) );
        ( "P(PFD > 0)",
          Compare.approx
            (Core.Voting.p_some_system_fault arch u)
            (Core.Pfd_dist.prob_positive d) );
      ])

let voting_vs_executable_adjudicator =
  Oracle.make ~id:"voting-vs-executable-adjudicator"
    ~description:
      "Voting.mu vs concretely developed versions behind the executable \
       Simulator.Adjudicator (full demand-space sweep per replication)"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let r = max 60 (Scenario.replications s / 8) in
      let samples =
        Sim.concrete_voted_pfds (Oracle.rng s ~salt:5) (Scenario.space s)
          ~arch ~replications:r
      in
      [
        ( "system PFD mean",
          Compare.mean_z
            ~bound:(Core.Universe.total_q u)
            ~expected:(Core.Voting.mu arch u)
            ~sigma:(Core.Voting.sigma arch u)
            ~trials:r ~mean:(Stats.mean samples) () );
        ( "P(system has a defeating fault)",
          Compare.wilson
            ~expected:(Core.Voting.p_some_system_fault arch u)
            ~successes:(Sim.count_positive samples) ~trials:r () );
      ])

(* ---- Pfd_dist: exact vs grid vs sampling ---- *)

let pfd_exact_vs_grid =
  Oracle.make ~id:"pfd-exact-vs-grid"
    ~description:
      "Pfd_dist exact enumeration vs the grid convolution (support \
       displacement bounded by n*step/2)"
    (fun s ->
      let u = Scenario.universe s in
      let bins = 4096 in
      let n = float_of_int (Core.Universe.size u) in
      let step = Core.Universe.total_q u /. float_of_int (bins - 1) in
      let tol = (n *. step /. 2.0) +. 1e-12 in
      let exact1 = Core.Pfd_dist.exact_single u in
      let grid1 = Core.Pfd_dist.grid_single u ~bins in
      let exact2 = Core.Pfd_dist.exact_pair u in
      let grid2 = Core.Pfd_dist.grid_pair u ~bins in
      let mean = Core.Pfd_dist.mean in
      [
        ("Theta_1 mean", Compare.approx ~abs:tol ~rel:0.0 (mean exact1) (mean grid1));
        ("Theta_2 mean", Compare.approx ~abs:tol ~rel:0.0 (mean exact2) (mean grid2));
        ( "P(Theta_1 > 0)",
          Compare.approx
            (Core.Pfd_dist.prob_positive exact1)
            (Core.Pfd_dist.prob_positive grid1) );
      ])

let pfd_exact_vs_sampling =
  Oracle.make ~id:"pfd-exact-vs-sampling"
    ~description:
      "Pfd_dist exact CDF/quantile machinery vs inverse-transform sampling \
       from the same distribution"
    (fun s ->
      let u = Scenario.universe s in
      let r = Scenario.replications s in
      let d = Core.Pfd_dist.exact_single u in
      let rng = Oracle.rng s ~salt:7 in
      let samples = Array.init r (fun _ -> Core.Pfd_dist.sample d rng) in
      [
        ( "mean",
          Compare.mean_z
            ~bound:(Core.Universe.total_q u)
            ~expected:(Core.Pfd_dist.mean d)
            ~sigma:(Core.Pfd_dist.std d) ~trials:r ~mean:(Stats.mean samples)
            () );
        ( "P(X > 0)",
          Compare.wilson
            ~expected:(Core.Pfd_dist.prob_positive d)
            ~successes:(Sim.count_positive samples) ~trials:r () );
      ])

(* ---- baselines in their exact / degenerate regimes ---- *)

let eckhardt_lee_identities =
  Oracle.make ~id:"eckhardt-lee-identities"
    ~description:
      "Eckhardt-Lee difficulty-function means over the demand space vs the \
       universe closed forms (exact on disjoint regions), plus the EL \
       decomposition residual"
    (fun s ->
      let u = Scenario.universe s and sp = Scenario.space s in
      [
        ( "E(Theta_1)",
          Compare.approx (Core.Moments.mu1 u)
            (Baselines.Eckhardt_lee.mean_single sp) );
        ( "E(Theta_2)",
          Compare.approx (Core.Moments.mu2 u)
            (Baselines.Eckhardt_lee.mean_pair sp) );
        ( "EL decomposition residual",
          Compare.approx ~abs:1e-9 0.0 (Baselines.Eckhardt_lee.el_identity_gap sp)
        );
      ])

let eckhardt_lee_vs_concrete =
  Oracle.make ~id:"eckhardt-lee-vs-concrete"
    ~description:
      "EL mean single/pair PFD vs concretely developed versions (true \
       set-intersection PFDs, no non-overlap shortcut on the simulation \
       side)"
    (fun s ->
      let u = Scenario.universe s and sp = Scenario.space s in
      let r = max 200 (Scenario.replications s / 3) in
      let singles, pairs =
        Sim.concrete_pairs (Oracle.rng s ~salt:9) sp ~replications:r
      in
      let bound = Core.Universe.total_q u in
      [
        ( "mean single PFD",
          Compare.mean_z ~bound
            ~expected:(Baselines.Eckhardt_lee.mean_single sp)
            ~sigma:(Core.Moments.sigma1 u) ~trials:r ~mean:(Stats.mean singles)
            () );
        ( "mean pair PFD",
          Compare.mean_z ~bound
            ~expected:(Baselines.Eckhardt_lee.mean_pair sp)
            ~sigma:(Core.Moments.sigma2 u) ~trials:r ~mean:(Stats.mean pairs) ()
        );
      ])

let littlewood_miller_degenerate =
  Oracle.make ~id:"littlewood-miller-degenerate"
    ~description:
      "Littlewood-Miller with identical processes must reduce exactly to \
       Eckhardt-Lee (degenerate regime used as an algebraic oracle)"
    (fun s ->
      let sp = Scenario.space s in
      let lm = Baselines.Littlewood_miller.same_process sp in
      [
        ( "E(Theta_2)",
          Compare.approx
            (Baselines.Eckhardt_lee.mean_pair sp)
            (Baselines.Littlewood_miller.mean_pair lm) );
        ( "Cov(theta_A, theta_B) = Var(theta)",
          Compare.approx ~abs:1e-12
            (Baselines.Eckhardt_lee.difficulty_variance sp)
            (Baselines.Littlewood_miller.difficulty_covariance lm) );
        ( "LM decomposition residual",
          Compare.approx ~abs:1e-9 0.0
            (Baselines.Littlewood_miller.lm_identity_gap lm) );
      ])

let independence_degenerate =
  Oracle.make ~id:"independence-degenerate"
    ~description:
      "Failure independence is exact iff the difficulty function is \
       constant: checked on a constant-difficulty space, plus the EL-style \
       penalty bound on the scenario universe"
    (fun s ->
      let u = Scenario.universe s in
      (* constant-difficulty construction: partition the whole demand
         space into one region per fault, all sharing one introduction
         probability, so theta(x) = p0 everywhere *)
      let size = Demandspace.Space.size (Scenario.space s) in
      let k = Demandspace.Space.fault_count (Scenario.space s) in
      let p0 = Core.Fault.p (Core.Universe.fault u 0) in
      let block = size / k in
      let faults =
        Array.init k (fun i ->
            let lo = block * i in
            let hi = if i = k - 1 then size - 1 else lo + block - 1 in
            (Demandspace.Region.interval ~space_size:size ~lo ~hi, p0))
      in
      let flat =
        Demandspace.Space.create
          ~profile:(Demandspace.Profile.uniform ~size)
          ~faults
      in
      let el1 = Baselines.Eckhardt_lee.mean_single flat in
      [
        ( "constant difficulty: E(Theta_2) = E(Theta_1)^2",
          Compare.approx
            (Baselines.Independence.pair_pfd ~single_pfd:el1)
            (Baselines.Eckhardt_lee.mean_pair flat) );
        ( "mu2/mu1^2 >= 1 (EL penalty)",
          Compare.lower_bound 1.0
            (Baselines.Independence.underestimation_factor u) );
      ])

let correlated_degenerate =
  Oracle.make ~id:"correlated-degenerate"
    ~description:
      "Correlated fault introduction at lift 1 (zero shock effect) must \
       reproduce the independent closed forms exactly, and its pair sampler \
       must agree with mu2"
    (fun s ->
      let u = Scenario.universe s in
      let c =
        Extensions.Correlated.of_universe_with_shock u ~cluster_size:2
          ~shock_prob:0.3 ~lift:1.0
      in
      let mu2 = Core.Moments.mu2 u in
      let r = max 300 (Scenario.replications s / 2) in
      let rng = Oracle.rng s ~salt:12 in
      let pair_samples =
        Array.init r (fun _ ->
            let _, pair = Extensions.Correlated.sample_pair_pfd rng c in
            pair)
      in
      [
        ("mu1", Compare.approx (Core.Moments.mu1 u) (Extensions.Correlated.mu1 c));
        ("mu2", Compare.approx mu2 (Extensions.Correlated.mu2 c));
        ( "risk ratio (eq. 10)",
          Compare.approx
            (Core.Fault_count.risk_ratio u)
            (Extensions.Correlated.risk_ratio c) );
        ( "sampled pair PFD mean",
          Compare.mean_z
            ~bound:(Core.Universe.total_q u)
            ~expected:mu2
            ~sigma:(Core.Moments.sigma2 u)
            ~trials:r ~mean:(Stats.mean pair_samples) () );
      ])

(* ---- incremental rewrites vs the retained naive kernels ---- *)

let gradient_incremental_vs_naive =
  Oracle.make ~id:"gradient-incremental-vs-naive"
    ~description:
      "O(n) prefix/suffix risk_ratio_gradient and risk_ratio_k_derivative \
       vs the retained O(n^2) per-partial references, including p_i in \
       {0, 1} boundary coordinates"
    (fun s ->
      let ps = Core.Universe.ps (Scenario.universe s) in
      (* gap between the two gradients, against the EXPERIMENTS.md
         ulp-policy bound (see {!Reference.gradient_tol}) *)
      let gradient ps =
        let naive = Reference.risk_ratio_gradient_naive ps in
        Compare.approx ~abs:(Reference.gradient_tol naive) ~rel:0.0 0.0
          (Reference.gradient_gap (Core.Sensitivity.risk_ratio_gradient ps) naive)
      in
      let boundary =
        (* exercise the p_i = 0 and p_i = 1 edges the prefix/suffix
           construction exists for: a 1-coordinate sends every other
           partial through exp(-inf) = 0 while its own stays finite *)
        let b = Array.copy ps in
        if Array.length b > 0 then b.(0) <- 0.0;
        if Array.length b > 1 then b.(1) <- 1.0;
        b
      in
      let k = 0.5 in
      [
        ("gradient max |fast - naive|", gradient ps);
        ("gradient max |fast - naive| (p in {0,1})", gradient boundary);
        ( "dR/dk (Appendix B)",
          Compare.approx ~abs:1e-12
            (Reference.risk_ratio_k_derivative_naive ~b:ps ~k)
            (Core.Sensitivity.risk_ratio_k_derivative ~b:ps ~k) );
      ])

let pfd_fast_vs_legacy =
  Oracle.make ~id:"pfd-fast-vs-legacy"
    ~description:
      "Preallocated ping-pong exact convolution vs the legacy allocating \
       pass (bit-identical), and binomial-block grid convolution vs the \
       per-fault sweeps (agreement to rounding)"
    (fun s ->
      let u = Scenario.universe s in
      let probs = Core.Universe.ps u and values = Core.Universe.qs u in
      let fast = Core.Pfd_dist.exact_of_vectors ~probs ~values () in
      let legacy = Reference.exact_of_vectors_naive ~probs ~values () in
      let bins = 1024 in
      let gfast = Core.Pfd_dist.grid_of_vectors ~probs ~values ~bins () in
      let glegacy =
        Reference.grid_of_vectors_naive ~probs ~values ~bins ()
      in
      let open Core.Pfd_dist in
      [
        (* The exact path claims bit-identity: same float ops
           in the same order, only the buffer management changed. *)
        ("exact mean", Compare.exact_bits (mean legacy) (mean fast));
        ("exact variance", Compare.exact_bits (variance legacy) (variance fast));
        ( "exact P(X > 0)",
          Compare.exact_bits (prob_positive legacy) (prob_positive fast) );
        (* The grid rewrite coalesces same-shift faults into binomial
           blocks, associating their products differently: rounding-level
           agreement only (see EXPERIMENTS.md for the policy). *)
        ("grid mean", Compare.approx (mean glegacy) (mean gfast));
        ( "grid P(X > 0)",
          Compare.approx (prob_positive glegacy) (prob_positive gfast) );
      ])

(* ---- the sharded fleet pipeline vs the moments ---- *)

let fleet_vs_moments =
  Oracle.make ~id:"fleet-vs-moments"
    ~description:
      "Sharded fleet pipeline: deployed 1oo2 systems' true PFDs vs mu2, and \
       observed field failure counts vs the deployed fleet's own true PFDs"
    (fun s ->
      let u = Scenario.universe s in
      let plants = 48 and demands_per_plant = 400 in
      let rng = Oracle.rng s ~salt:13 in
      let systems =
        Simulator.Fleet.deploy_pairs rng (Scenario.space s) ~plants
      in
      let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant in
      let summary = Simulator.Fleet.true_pfd_summary fleet in
      [
        ( "deployed true-PFD mean vs mu2",
          Compare.mean_z
            ~bound:(Core.Universe.total_q u)
            ~expected:(Core.Moments.mu2 u)
            ~sigma:(Core.Moments.sigma2 u)
            ~trials:plants ~mean:summary.mean () );
        (* conditional on the deployed PFDs, per-demand failures are
           independent (heterogeneous) Bernoullis, for which the Wilson
           interval around the pooled count is conservative *)
        ( "observed failure rate vs deployed PFDs",
          Compare.wilson ~expected:summary.mean
            ~successes:(Simulator.Fleet.total_failures fleet)
            ~trials:(plants * demands_per_plant) () );
      ])

(* ---- the adjudication calculus: law oracles (DESIGN.md
   "Adjudication algebra") ---- *)

(* Deterministic random calculus terms and output vectors, drawn from
   the oracle's salted stream — the same term family test/prop.ml's
   generators explore, so a law failure found by either harness replays
   in the other. *)
let rec random_term rng ~depth =
  let leaf () =
    if Rng.int rng 4 = 0 then Simulator.Adjudicator.unit
    else Simulator.Adjudicator.vote ~required:(1 + Rng.int rng 4)
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int rng 4 with
    | 0 | 1 -> leaf ()
    | 2 ->
        Simulator.Adjudicator.compose
          (random_term rng ~depth:(depth - 1))
          (random_term rng ~depth:(depth - 1))
    | _ ->
        Simulator.Adjudicator.fallback
          (random_term rng ~depth:(depth - 1))
          (random_term rng ~depth:(depth - 1))

let random_outputs rng ~n ~abstaining =
  List.init n (fun _ ->
      match Rng.int rng (if abstaining then 3 else 2) with
      | 0 -> Simulator.Channel.Shutdown
      | 1 -> Simulator.Channel.No_action
      | _ -> Simulator.Channel.Abstain)

(* A vector long enough for every sub-term the law rewrites [term] into:
   combine raises below [min_channels], and the laws quantify over
   vectors both sides accept. *)
let random_vector_for rng term ~abstaining =
  let n = Simulator.Adjudicator.min_channels term + Rng.int rng 5 in
  random_outputs rng ~n ~abstaining

(* The law oracles draw their cases with [Array.init], which evaluates
   in index order, so each case consumes the salted stream in turn. *)

let adjudication_unit_identity =
  Oracle.make ~id:"adjudication-unit-identity"
    ~description:
      "compose unit t, compose t unit and t decide identically on every \
       output vector (unit is a two-sided identity of compose)"
    (fun s ->
      let rng = Oracle.rng s ~salt:14 in
      let holds =
        Array.init 200 (fun _ ->
            let t = random_term rng ~depth:3 in
            let outs = random_vector_for rng t ~abstaining:true in
            let decides t' =
              Simulator.Channel.equal
                (Simulator.Adjudicator.combine t' outs)
                (Simulator.Adjudicator.combine t outs)
            in
            Simulator.Adjudicator.
              (decides (compose unit t), decides (compose t unit)))
      in
      [
        ("compose unit t ≡ t", Compare.law (Array.map fst holds));
        ("compose t unit ≡ t", Compare.law (Array.map snd holds));
      ])

let adjudication_vote_permutation =
  Oracle.make ~id:"adjudication-vote-permutation"
    ~description:
      "every calculus term adjudicates counts, so combine is invariant \
       under permutation of the channel output vector"
    (fun s ->
      let rng = Oracle.rng s ~salt:15 in
      let holds =
        Array.init 200 (fun _ ->
            let t = random_term rng ~depth:3 in
            let outs = random_vector_for rng t ~abstaining:true in
            let a = Simulator.Adjudicator.combine t outs in
            Simulator.Channel.equal a
              (Simulator.Adjudicator.combine t (Reference.shuffle rng outs)))
      in
      [ ("combine t (perm v) ≡ combine t v", Compare.law holds) ])

let adjudication_fallback_idempotent =
  Oracle.make ~id:"adjudication-fallback-idempotent"
    ~description:
      "fallback t t decides as t on abstain-free vectors (the backup \
       can only be reached when the primary abstains)"
    (fun s ->
      let rng = Oracle.rng s ~salt:16 in
      let holds =
        Array.init 200 (fun _ ->
            let t = random_term rng ~depth:3 in
            let outs = random_vector_for rng t ~abstaining:false in
            Simulator.Channel.equal
              (Simulator.Adjudicator.(combine (fallback t t)) outs)
              (Simulator.Adjudicator.combine t outs))
      in
      [ ("fallback t t ≡ t (abstain-free)", Compare.law holds) ])

let adjudication_vote_vs_legacy =
  Oracle.make ~id:"adjudication-vote-vs-legacy"
    ~description:
      "vote ~required bit-matches the retained legacy M-out-of-N \
       adjudicator (and its system_fails predicate) on abstain-free \
       vectors, across every threshold the vector admits"
    (fun s ->
      let rng = Oracle.rng s ~salt:17 in
      (* one case per (vector, threshold) pair *)
      let holds =
        Array.concat
          (Array.to_list
             (Array.init 200 (fun _ ->
                  let n = 1 + Rng.int rng 7 in
                  let outs = random_outputs rng ~n ~abstaining:false in
                  Array.init n (fun i ->
                      let required = i + 1 in
                      let t = Simulator.Adjudicator.m_out_of_n ~required in
                      let legacy = Reference.legacy_combine ~required outs in
                      ( Simulator.Channel.equal
                          (Simulator.Adjudicator.combine t outs)
                          legacy,
                        Simulator.Adjudicator.system_fails t outs
                        = not
                            (Simulator.Channel.equal legacy
                               Simulator.Channel.Shutdown) )))))
      in
      [
        ("combine ≡ legacy decision", Compare.law (Array.map fst holds));
        ("system_fails ≡ legacy predicate", Compare.law (Array.map snd holds));
      ])

let adjudication_graceful_degradation =
  Oracle.make ~id:"adjudication-graceful-degradation"
    ~description:
      "fallback (vote 2) (vote 1) over 3 self-checking channels: exact \
       agreement with an independent list evaluator, and the \
       policy_defeat_prob closed form vs both the list-path and \
       counts-path samplers"
    (fun s ->
      let rng = Oracle.rng s ~salt:18 in
      let cascade =
        Simulator.Adjudicator.(
          fallback (vote ~required:2) (vote ~required:1))
      in
      let channels = 3 and detection = 0.35 in
      let holds =
        Array.init 300 (fun _ ->
            let outs = random_outputs rng ~n:channels ~abstaining:true in
            Simulator.Channel.equal
              (Simulator.Adjudicator.combine cascade outs)
              (Reference.reference_cascade outs))
      in
      let u = Scenario.universe s in
      let policy = Simulator.Adjudicator.policy cascade in
      let mu = Core.Voting.policy_mu policy ~channels ~detection u in
      let sigma = Core.Voting.policy_sigma policy ~channels ~detection u in
      let bound = Core.Universe.total_q u in
      let r = Scenario.replications s in
      let list_samples =
        Sim.adjudicated rng u ~channels ~detection ~adjudicator:cascade
          ~replications:r
      in
      let counts_samples =
        let compiled = Simulator.Devteam.compile u in
        Array.init r (fun _ ->
            Simulator.Devteam.adjudicated_system_pfd ~detection rng compiled
              ~channels ~adjudicator:cascade)
      in
      let sampler samples =
        Compare.mean_z ~bound ~expected:mu ~sigma ~trials:r
          ~mean:(Stats.mean samples) ()
      in
      [
        ("combine ≡ independent evaluator", Compare.law holds);
        ("policy_mu vs list-path sampler", sampler list_samples);
        ("policy_mu vs counts-path sampler", sampler counts_samples);
      ])

let adjudication_policy_vs_binomial =
  Oracle.make ~id:"adjudication-policy-vs-binomial"
    ~description:
      "policy closed forms at detection 0 (binom_pmf double sum over \
       carriers and abstainers) vs the legacy Voting closed forms \
       (regularized-incomplete-beta tails) on the scenario architecture"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let channels = Core.Voting.channels arch in
      let policy = Core.Voting.arch_policy arch in
      let pmu = Core.Voting.policy_mu policy ~channels u in
      let dist = Core.Voting.policy_pfd_dist policy ~channels u in
      [
        ("policy_mu vs Voting.mu", Compare.approx (Core.Voting.mu arch u) pmu);
        ( "policy_var vs Voting.var",
          Compare.approx ~abs:1e-15 (Core.Voting.var arch u)
            (Core.Voting.policy_var policy ~channels u) );
        ( "policy_p_some vs Voting.p_some",
          Compare.approx
            (Core.Voting.p_some_system_fault arch u)
            (Core.Voting.policy_p_some_system_fault policy ~channels u) );
        ( "policy risk ratio vs Voting risk ratio",
          Compare.approx
            (Core.Voting.risk_ratio_vs_single arch u)
            (Core.Voting.policy_risk_ratio_vs_single policy ~channels u) );
        ( "policy_pfd_dist mean vs policy_mu",
          Compare.approx pmu (Core.Pfd_dist.mean dist) );
      ])

(* ---- the assessment service vs the one-shot evaluator ---- *)

let serve_vs_cli =
  Oracle.make ~id:"serve-vs-cli"
    ~description:
      "Served responses (Serve.Dispatcher batch over the ambient pool, any \
       worker count) vs direct Serve.Engine.eval: byte identity per verb, \
       plus the served moments body cross-read against Core.Moments \
       bit-exactly"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let spec =
        { Serve.Proto.ps = Core.Universe.ps u; qs = Core.Universe.qs u }
      in
      let channels = Core.Voting.channels arch in
      let required = Core.Voting.required arch in
      (* Request parameters drawn from the oracle's private substream:
         the scenario sweep also exercises the service on varying fleet
         shapes, salts and shard counts. *)
      let rng = Oracle.rng s ~salt:19 in
      let bins =
        if Core.Universe.size u <= Core.Pfd_dist.max_exact_faults then 0
        else 128 + Rng.int rng 128
      in
      let request id verb = { Serve.Proto.id; u = spec; verb } in
      let requests =
        [|
          request "o-moments" Serve.Proto.Moments;
          request "o-risk" (Serve.Proto.Risk_ratio { channels; required });
          request "o-dist" (Serve.Proto.Pfd_dist { channels; required; bins });
          request "o-fleet"
            (Serve.Proto.Fleet_mission
               {
                 plants = 4 + Rng.int rng 5;
                 demands_per_plant = 50 + Rng.int rng 100;
                 mission_demands = 500;
                 salt = Rng.int rng 1024;
                 shards = 1 + Rng.int rng 8;
                 space = 1024;
               });
        |]
      in
      let seed = Scenario.sim_seed s in
      let disp = Serve.Dispatcher.create ~pool:(Exec.Pool.default ()) ~seed in
      let served = Serve.Dispatcher.run_batch disp requests in
      let identity =
        Array.to_list
          (Array.mapi
             (fun i (res : Serve.Dispatcher.result) ->
               ( Serve.Proto.verb_name requests.(i) ^ " byte-identity",
                 Compare.same_bytes
                   (Serve.Engine.eval ~seed requests.(i))
                   res.Serve.Dispatcher.line ))
             served)
      in
      (* Cross-read: the served moments body must carry the closed forms
         bit-exactly (the JSON float codec round-trips exactly). *)
      let served_mu2 =
        match Serve.Proto.parse_response served.(0).Serve.Dispatcher.line with
        | Ok { Serve.Proto.resp_body = Some b; _ } ->
            Option.value ~default:nan
              (Option.bind (Obs.Json.member "mu2" b) Obs.Json.to_float)
        | Ok _ | Error _ -> nan
      in
      identity
      @ [
          ( "served mu2 field",
            Compare.exact_bits (Core.Moments.mu2 u) served_mu2 );
        ])

let all =
  [
    moments_vs_montecarlo;
    voting_mu_vs_sim;
    voting_events_vs_sim;
    voting_dist_vs_closed_form;
    voting_vs_executable_adjudicator;
    pfd_exact_vs_grid;
    pfd_exact_vs_sampling;
    eckhardt_lee_identities;
    eckhardt_lee_vs_concrete;
    littlewood_miller_degenerate;
    independence_degenerate;
    correlated_degenerate;
    gradient_incremental_vs_naive;
    pfd_fast_vs_legacy;
    fleet_vs_moments;
    adjudication_unit_identity;
    adjudication_vote_permutation;
    adjudication_fallback_idempotent;
    adjudication_vote_vs_legacy;
    adjudication_graceful_degradation;
    adjudication_policy_vs_binomial;
    serve_vs_cli;
  ]

let ids () = List.map Oracle.id all

let find id =
  List.find_opt (fun o -> String.equal (Oracle.id o) id) all

let run_all scenario =
  List.concat_map (fun o -> Oracle.run o scenario) all

let failures outcomes = List.filter (fun o -> not (Oracle.passed o)) outcomes

(* ---- full sweep over generated scenarios (the CLI `check` verb) ---- *)

type sweep = {
  cases : int;
  checks : int;
  failed : (int * Scenario.t * Oracle.outcome) list;
  per_oracle : (string * int * int) list;  (* id, checks, failures *)
}

let sweep ?replications ~seed ~cases () =
  if cases < 1 then invalid_arg "Registry.sweep: cases must be >= 1";
  let parent = Rng.create ~seed in
  let per_oracle = ref (List.map (fun o -> (Oracle.id o, 0, 0)) all) in
  let failed = ref [] in
  for case = 0 to cases - 1 do
    let scenario =
      Scenario.generate ?replications (Rng.split parent ~index:case)
    in
    let runs = List.map (fun o -> Oracle.run o scenario) all in
    per_oracle :=
      List.map2
        (fun (id, n, f) outcomes ->
          (id, n + List.length outcomes, f + List.length (failures outcomes)))
        !per_oracle runs;
    List.iter
      (fun o -> failed := (case, scenario, o) :: !failed)
      (failures (List.concat runs))
  done;
  {
    cases;
    checks = List.fold_left (fun acc (_, n, _) -> acc + n) 0 !per_oracle;
    failed = List.rev !failed;
    per_oracle = !per_oracle;
  }

let passed sweep = sweep.failed = []

let render sweep =
  let table =
    Report.Table.of_rows ~title:"Differential cross-check sweep"
      ~headers:[ "oracle"; "checks"; "failures" ]
      (List.map
         (fun (id, n, f) ->
           [ id; Report.Table.int n; Report.Table.int f ])
         sweep.per_oracle)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Report.Table.render table);
  Buffer.add_string buf
    (Printf.sprintf "\n%d scenarios, %d checks, %d failures\n" sweep.cases
       sweep.checks (List.length sweep.failed));
  List.iter
    (fun (case, scenario, o) ->
      Buffer.add_string buf
        (Fmt.str "case %d: %a@\n  %a@\n" case Scenario.pp scenario
           Oracle.pp_outcome o))
    sweep.failed;
  Buffer.contents buf
