open Numerics

(* Each oracle below pairs one analytic quantity (closed form on the
   universe) with an independent estimate of the same quantity —
   Monte Carlo over the abstract development model, full-stack concrete
   simulation over the demand space, or a second closed-form derivation —
   and the comparator appropriate to how the two sides were computed.
   See DESIGN.md "Cross-check matrix" for the full table. *)

let mk ~oracle ~quantity ~analytic ~simulated verdict =
  { Oracle.oracle; quantity; analytic; simulated; verdict }

(* ---- eqs. 1-3, 10 vs the sharded Monte Carlo harness ---- *)

let moments_vs_montecarlo =
  let id = "moments-vs-montecarlo" in
  Oracle.make ~id
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
      let mu1 = Core.Moments.mu1 u and mu2 = Core.Moments.mu2 u in
      let p1 = Core.Fault_count.p_n1_pos u in
      let p2 = Core.Fault_count.p_n2_pos u in
      let rr = Core.Fault_count.risk_ratio u in
      [
        mk ~oracle:id ~quantity:"mu1 (eq. 1)" ~analytic:mu1
          ~simulated:est.theta1.mean
          (Compare.mean_z ~bound ~expected:mu1 ~sigma:(Core.Moments.sigma1 u)
             ~trials:r ~mean:est.theta1.mean ());
        mk ~oracle:id ~quantity:"mu2 (eq. 1)" ~analytic:mu2
          ~simulated:est.theta2.mean
          (Compare.mean_z ~bound ~expected:mu2 ~sigma:(Core.Moments.sigma2 u)
             ~trials:r ~mean:est.theta2.mean ());
        mk ~oracle:id ~quantity:"P(N1>0)" ~analytic:p1 ~simulated:est.p_n1_pos
          (Compare.wilson ~expected:p1 ~successes:n1 ~trials:r ());
        mk ~oracle:id ~quantity:"P(N2>0)" ~analytic:p2 ~simulated:est.p_n2_pos
          (Compare.wilson ~expected:p2 ~successes:n2 ~trials:r ());
        mk ~oracle:id ~quantity:"risk ratio (eq. 10)" ~analytic:rr
          ~simulated:est.risk_ratio
          (Compare.ratio_wilson ~expected:rr ~num:n2 ~den:n1 ~trials:r ());
      ])

(* ---- Voting closed forms vs the abstract N-of-M sampler ---- *)

let voting_mu_vs_sim =
  let id = "voting-mu-vs-sim" in
  Oracle.make ~id
    ~description:
      "Voting.mu (binomial defeat probabilities) vs abstract N-of-M \
       development sampling, z-tested against Voting.sigma"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let r = Scenario.replications s in
      let run = Sim.voted (Oracle.rng s ~salt:2) u ~arch ~replications:r in
      let mu = Core.Voting.mu arch u in
      let mean = Stats.mean run.Sim.pfds in
      [
        mk ~oracle:id ~quantity:"Voting.mu" ~analytic:mu ~simulated:mean
          (Compare.mean_z
             ~bound:(Core.Universe.total_q u)
             ~expected:mu
             ~sigma:(Core.Voting.sigma arch u)
             ~trials:r ~mean ());
      ])

let voting_events_vs_sim =
  let id = "voting-events-vs-sim" in
  Oracle.make ~id
    ~description:
      "Voting.p_some_system_fault and risk_ratio_vs_single (eq. 10 \
       generalised) vs abstract N-of-M sampling"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let r = Scenario.replications s in
      let run = Sim.voted (Oracle.rng s ~salt:3) u ~arch ~replications:r in
      let p_some = Core.Voting.p_some_system_fault arch u in
      let rr = Core.Voting.risk_ratio_vs_single arch u in
      let sim_p = float_of_int run.Sim.system_faulty /. float_of_int r in
      let sim_rr =
        if run.Sim.single_faulty = 0 then nan
        else
          float_of_int run.Sim.system_faulty
          /. float_of_int run.Sim.single_faulty
      in
      [
        mk ~oracle:id ~quantity:"p_some_system_fault" ~analytic:p_some
          ~simulated:sim_p
          (Compare.wilson ~expected:p_some ~successes:run.Sim.system_faulty
             ~trials:r ());
        mk ~oracle:id ~quantity:"risk_ratio_vs_single" ~analytic:rr
          ~simulated:sim_rr
          (Compare.ratio_wilson ~expected:rr ~num:run.Sim.system_faulty
             ~den:run.Sim.single_faulty ~trials:r ());
      ])

let voting_dist_vs_closed_form =
  let id = "voting-dist-vs-closed-form" in
  Oracle.make ~id
    ~description:
      "Voting.pfd_dist exact enumeration vs the direct closed forms \
       (Voting.mu/var/p_some_system_fault)"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let d = Core.Voting.pfd_dist arch u in
      let mu = Core.Voting.mu arch u in
      let var = Core.Voting.var arch u in
      let p_some = Core.Voting.p_some_system_fault arch u in
      [
        mk ~oracle:id ~quantity:"mean" ~analytic:mu
          ~simulated:(Core.Pfd_dist.mean d)
          (Compare.approx mu (Core.Pfd_dist.mean d));
        mk ~oracle:id ~quantity:"variance" ~analytic:var
          ~simulated:(Core.Pfd_dist.variance d)
          (Compare.approx ~abs:1e-15 var (Core.Pfd_dist.variance d));
        mk ~oracle:id ~quantity:"P(PFD > 0)" ~analytic:p_some
          ~simulated:(Core.Pfd_dist.prob_positive d)
          (Compare.approx p_some (Core.Pfd_dist.prob_positive d));
      ])

let voting_vs_executable_adjudicator =
  let id = "voting-vs-executable-adjudicator" in
  Oracle.make ~id
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
      let mu = Core.Voting.mu arch u in
      let mean = Stats.mean samples in
      let positive = Sim.count_positive samples in
      let p_some = Core.Voting.p_some_system_fault arch u in
      [
        mk ~oracle:id ~quantity:"system PFD mean" ~analytic:mu ~simulated:mean
          (Compare.mean_z
             ~bound:(Core.Universe.total_q u)
             ~expected:mu
             ~sigma:(Core.Voting.sigma arch u)
             ~trials:r ~mean ());
        mk ~oracle:id ~quantity:"P(system has a defeating fault)"
          ~analytic:p_some
          ~simulated:(float_of_int positive /. float_of_int r)
          (Compare.wilson ~expected:p_some ~successes:positive ~trials:r ());
      ])

(* ---- Pfd_dist: exact vs grid vs sampling ---- *)

let pfd_exact_vs_grid =
  let id = "pfd-exact-vs-grid" in
  Oracle.make ~id
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
      [
        mk ~oracle:id ~quantity:"Theta_1 mean"
          ~analytic:(Core.Pfd_dist.mean exact1)
          ~simulated:(Core.Pfd_dist.mean grid1)
          (Compare.approx ~abs:tol ~rel:0.0 (Core.Pfd_dist.mean exact1)
             (Core.Pfd_dist.mean grid1));
        mk ~oracle:id ~quantity:"Theta_2 mean"
          ~analytic:(Core.Pfd_dist.mean exact2)
          ~simulated:(Core.Pfd_dist.mean grid2)
          (Compare.approx ~abs:tol ~rel:0.0 (Core.Pfd_dist.mean exact2)
             (Core.Pfd_dist.mean grid2));
        mk ~oracle:id ~quantity:"P(Theta_1 > 0)"
          ~analytic:(Core.Pfd_dist.prob_positive exact1)
          ~simulated:(Core.Pfd_dist.prob_positive grid1)
          (Compare.approx
             (Core.Pfd_dist.prob_positive exact1)
             (Core.Pfd_dist.prob_positive grid1));
      ])

let pfd_exact_vs_sampling =
  let id = "pfd-exact-vs-sampling" in
  Oracle.make ~id
    ~description:
      "Pfd_dist exact CDF/quantile machinery vs inverse-transform sampling \
       from the same distribution"
    (fun s ->
      let u = Scenario.universe s in
      let r = Scenario.replications s in
      let d = Core.Pfd_dist.exact_single u in
      let rng = Oracle.rng s ~salt:7 in
      let samples = Array.init r (fun _ -> Core.Pfd_dist.sample d rng) in
      let mean = Stats.mean samples in
      let positive = Sim.count_positive samples in
      let p_pos = Core.Pfd_dist.prob_positive d in
      [
        mk ~oracle:id ~quantity:"mean" ~analytic:(Core.Pfd_dist.mean d)
          ~simulated:mean
          (Compare.mean_z
             ~bound:(Core.Universe.total_q u)
             ~expected:(Core.Pfd_dist.mean d)
             ~sigma:(Core.Pfd_dist.std d) ~trials:r ~mean ());
        mk ~oracle:id ~quantity:"P(X > 0)" ~analytic:p_pos
          ~simulated:(float_of_int positive /. float_of_int r)
          (Compare.wilson ~expected:p_pos ~successes:positive ~trials:r ());
      ])

(* ---- baselines in their exact / degenerate regimes ---- *)

let eckhardt_lee_identities =
  let id = "eckhardt-lee-identities" in
  Oracle.make ~id
    ~description:
      "Eckhardt-Lee difficulty-function means over the demand space vs the \
       universe closed forms (exact on disjoint regions), plus the EL \
       decomposition residual"
    (fun s ->
      let u = Scenario.universe s and sp = Scenario.space s in
      let mu1 = Core.Moments.mu1 u and mu2 = Core.Moments.mu2 u in
      let el1 = Baselines.Eckhardt_lee.mean_single sp in
      let el2 = Baselines.Eckhardt_lee.mean_pair sp in
      let gap = Baselines.Eckhardt_lee.el_identity_gap sp in
      [
        mk ~oracle:id ~quantity:"E(Theta_1)" ~analytic:mu1 ~simulated:el1
          (Compare.approx mu1 el1);
        mk ~oracle:id ~quantity:"E(Theta_2)" ~analytic:mu2 ~simulated:el2
          (Compare.approx mu2 el2);
        mk ~oracle:id ~quantity:"EL decomposition residual" ~analytic:0.0
          ~simulated:gap
          (Compare.approx ~abs:1e-9 0.0 gap);
      ])

let eckhardt_lee_vs_concrete =
  let id = "eckhardt-lee-vs-concrete" in
  Oracle.make ~id
    ~description:
      "EL mean single/pair PFD vs concretely developed versions (true \
       set-intersection PFDs, no non-overlap shortcut on the simulation \
       side)"
    (fun s ->
      let u = Scenario.universe s in
      let r = max 200 (Scenario.replications s / 3) in
      let singles, pairs =
        Sim.concrete_pairs (Oracle.rng s ~salt:9) (Scenario.space s)
          ~replications:r
      in
      let bound = Core.Universe.total_q u in
      let el1 = Baselines.Eckhardt_lee.mean_single (Scenario.space s) in
      let el2 = Baselines.Eckhardt_lee.mean_pair (Scenario.space s) in
      let m1 = Stats.mean singles and m2 = Stats.mean pairs in
      [
        mk ~oracle:id ~quantity:"mean single PFD" ~analytic:el1 ~simulated:m1
          (Compare.mean_z ~bound ~expected:el1
             ~sigma:(Core.Moments.sigma1 u) ~trials:r ~mean:m1 ());
        mk ~oracle:id ~quantity:"mean pair PFD" ~analytic:el2 ~simulated:m2
          (Compare.mean_z ~bound ~expected:el2
             ~sigma:(Core.Moments.sigma2 u) ~trials:r ~mean:m2 ());
      ])

let littlewood_miller_degenerate =
  let id = "littlewood-miller-degenerate" in
  Oracle.make ~id
    ~description:
      "Littlewood-Miller with identical processes must reduce exactly to \
       Eckhardt-Lee (degenerate regime used as an algebraic oracle)"
    (fun s ->
      let sp = Scenario.space s in
      let lm = Baselines.Littlewood_miller.same_process sp in
      let el2 = Baselines.Eckhardt_lee.mean_pair sp in
      let lm2 = Baselines.Littlewood_miller.mean_pair lm in
      let cov = Baselines.Littlewood_miller.difficulty_covariance lm in
      let var = Baselines.Eckhardt_lee.difficulty_variance sp in
      let gap = Baselines.Littlewood_miller.lm_identity_gap lm in
      [
        mk ~oracle:id ~quantity:"E(Theta_2)" ~analytic:el2 ~simulated:lm2
          (Compare.approx el2 lm2);
        mk ~oracle:id ~quantity:"Cov(theta_A, theta_B) = Var(theta)"
          ~analytic:var ~simulated:cov
          (Compare.approx ~abs:1e-12 var cov);
        mk ~oracle:id ~quantity:"LM decomposition residual" ~analytic:0.0
          ~simulated:gap
          (Compare.approx ~abs:1e-9 0.0 gap);
      ])

let independence_degenerate =
  let id = "independence-degenerate" in
  Oracle.make ~id
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
      let el2 = Baselines.Eckhardt_lee.mean_pair flat in
      let indep = Baselines.Independence.pair_pfd ~single_pfd:el1 in
      let uf = Baselines.Independence.underestimation_factor u in
      [
        mk ~oracle:id ~quantity:"constant difficulty: E(Theta_2) = E(Theta_1)^2"
          ~analytic:indep ~simulated:el2
          (Compare.approx indep el2);
        mk ~oracle:id ~quantity:"mu2/mu1^2 >= 1 (EL penalty)" ~analytic:1.0
          ~simulated:uf
          {
            Compare.pass = uf >= 1.0 -. 1e-12;
            comparator = "lower-bound";
            detail = Printf.sprintf "underestimation factor %.6g >= 1" uf;
          };
      ])

let correlated_degenerate =
  let id = "correlated-degenerate" in
  Oracle.make ~id
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
      let mu1 = Core.Moments.mu1 u and mu2 = Core.Moments.mu2 u in
      let rr = Core.Fault_count.risk_ratio u in
      let r = max 300 (Scenario.replications s / 2) in
      let rng = Oracle.rng s ~salt:12 in
      let pair_samples =
        Array.init r (fun _ ->
            let _, pair = Extensions.Correlated.sample_pair_pfd rng c in
            pair)
      in
      let mean = Stats.mean pair_samples in
      [
        mk ~oracle:id ~quantity:"mu1" ~analytic:mu1
          ~simulated:(Extensions.Correlated.mu1 c)
          (Compare.approx mu1 (Extensions.Correlated.mu1 c));
        mk ~oracle:id ~quantity:"mu2" ~analytic:mu2
          ~simulated:(Extensions.Correlated.mu2 c)
          (Compare.approx mu2 (Extensions.Correlated.mu2 c));
        mk ~oracle:id ~quantity:"risk ratio (eq. 10)" ~analytic:rr
          ~simulated:(Extensions.Correlated.risk_ratio c)
          (Compare.approx rr (Extensions.Correlated.risk_ratio c));
        mk ~oracle:id ~quantity:"sampled pair PFD mean" ~analytic:mu2
          ~simulated:mean
          (Compare.mean_z
             ~bound:(Core.Universe.total_q u)
             ~expected:mu2
             ~sigma:(Core.Moments.sigma2 u)
             ~trials:r ~mean ());
      ])

(* ---- incremental rewrites vs the retained naive kernels ---- *)

(* Tolerance for the incremental-vs-naive gradient agreement: the two
   paths evaluate the same closed form but associate the compensated
   log-sums differently (per-index Kahan sums vs shared prefix/suffix
   arrays), so coordinates agree to rounding, not bitwise. The bound
   1e-9 * (1 + ||grad_naive||_inf) absolute plus 1e-9 relative is ~7
   orders of magnitude above the worst drift ever observed (~1e-14
   relative) while still catching any real formula divergence — see
   EXPERIMENTS.md "ulp-tolerance policy". *)
let gradient_tol g =
  Array.fold_left
    (fun acc d -> if Float.is_nan d then acc else Float.max acc (Float.abs d))
    0.0 g
  |> fun inf_norm -> 1e-9 *. (1.0 +. inf_norm)

let gradient_incremental_vs_naive =
  let id = "gradient-incremental-vs-naive" in
  Oracle.make ~id
    ~description:
      "O(n) prefix/suffix risk_ratio_gradient and risk_ratio_k_derivative \
       vs the retained O(n^2) per-partial references, including p_i in \
       {0, 1} boundary coordinates"
    (fun s ->
      let u = Scenario.universe s in
      let ps = Core.Universe.ps u in
      let max_abs_diff ps =
        let fast = Core.Sensitivity.risk_ratio_gradient ps in
        let naive = Core.Sensitivity.risk_ratio_gradient_naive ps in
        let d = ref 0.0 in
        Array.iteri
          (fun i f ->
            (* both NaN (the all-zero universe, where the ratio is 0/0)
               is agreement; NaN on one side only is divergence *)
            let diff =
              if Float.is_nan f && Float.is_nan naive.(i) then 0.0
              else Float.abs (f -. naive.(i))
            in
            d := Float.max !d diff)
          fast;
        (!d, gradient_tol naive)
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
      let d_plain, tol_plain = max_abs_diff ps in
      let d_bound, tol_bound = max_abs_diff boundary in
      let k = 0.5 in
      let dk = Core.Sensitivity.risk_ratio_k_derivative ~b:ps ~k in
      let dk_naive = Core.Sensitivity.risk_ratio_k_derivative_naive ~b:ps ~k in
      [
        mk ~oracle:id ~quantity:"gradient max |fast - naive|" ~analytic:0.0
          ~simulated:d_plain
          (Compare.approx ~abs:tol_plain ~rel:0.0 0.0 d_plain);
        mk ~oracle:id ~quantity:"gradient max |fast - naive| (p in {0,1})"
          ~analytic:0.0 ~simulated:d_bound
          (Compare.approx ~abs:tol_bound ~rel:0.0 0.0 d_bound);
        mk ~oracle:id ~quantity:"dR/dk (Appendix B)" ~analytic:dk_naive
          ~simulated:dk
          (Compare.approx ~abs:1e-12 dk_naive dk);
      ])

let pfd_fast_vs_legacy =
  let id = "pfd-fast-vs-legacy" in
  Oracle.make ~id
    ~description:
      "Preallocated ping-pong exact convolution vs the legacy allocating \
       pass (bit-identical), and binomial-block grid convolution vs the \
       per-fault sweeps (agreement to rounding)"
    (fun s ->
      let u = Scenario.universe s in
      let probs = Core.Universe.ps u and values = Core.Universe.qs u in
      let fast = Core.Pfd_dist.exact_of_vectors ~probs ~values () in
      let legacy = Core.Pfd_dist.exact_of_vectors_naive ~probs ~values () in
      let bins = 1024 in
      let gfast = Core.Pfd_dist.grid_of_vectors ~probs ~values ~bins () in
      let glegacy =
        Core.Pfd_dist.grid_of_vectors_naive ~probs ~values ~bins ()
      in
      [
        (* The exact path claims bit-identity: same float ops
           in the same order, only the buffer management changed. *)
        mk ~oracle:id ~quantity:"exact mean"
          ~analytic:(Core.Pfd_dist.mean legacy)
          ~simulated:(Core.Pfd_dist.mean fast)
          (Compare.exact_bits (Core.Pfd_dist.mean legacy)
             (Core.Pfd_dist.mean fast));
        mk ~oracle:id ~quantity:"exact variance"
          ~analytic:(Core.Pfd_dist.variance legacy)
          ~simulated:(Core.Pfd_dist.variance fast)
          (Compare.exact_bits
             (Core.Pfd_dist.variance legacy)
             (Core.Pfd_dist.variance fast));
        mk ~oracle:id ~quantity:"exact P(X > 0)"
          ~analytic:(Core.Pfd_dist.prob_positive legacy)
          ~simulated:(Core.Pfd_dist.prob_positive fast)
          (Compare.exact_bits
             (Core.Pfd_dist.prob_positive legacy)
             (Core.Pfd_dist.prob_positive fast));
        (* The grid rewrite coalesces same-shift faults into binomial
           blocks, associating their products differently: rounding-level
           agreement only (see EXPERIMENTS.md for the policy). *)
        mk ~oracle:id ~quantity:"grid mean"
          ~analytic:(Core.Pfd_dist.mean glegacy)
          ~simulated:(Core.Pfd_dist.mean gfast)
          (Compare.approx (Core.Pfd_dist.mean glegacy)
             (Core.Pfd_dist.mean gfast));
        mk ~oracle:id ~quantity:"grid P(X > 0)"
          ~analytic:(Core.Pfd_dist.prob_positive glegacy)
          ~simulated:(Core.Pfd_dist.prob_positive gfast)
          (Compare.approx
             (Core.Pfd_dist.prob_positive glegacy)
             (Core.Pfd_dist.prob_positive gfast));
      ])

(* ---- the sharded fleet pipeline vs the moments ---- *)

let fleet_vs_moments =
  let id = "fleet-vs-moments" in
  Oracle.make ~id
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
      let mu2 = Core.Moments.mu2 u in
      let pooled = Simulator.Fleet.pooled_rate fleet in
      let trials = plants * demands_per_plant in
      [
        mk ~oracle:id ~quantity:"deployed true-PFD mean vs mu2" ~analytic:mu2
          ~simulated:summary.mean
          (Compare.mean_z
             ~bound:(Core.Universe.total_q u)
             ~expected:mu2
             ~sigma:(Core.Moments.sigma2 u)
             ~trials:plants ~mean:summary.mean ());
        (* conditional on the deployed PFDs, per-demand failures are
           independent (heterogeneous) Bernoullis, for which the Wilson
           interval around the pooled count is conservative *)
        mk ~oracle:id ~quantity:"observed failure rate vs deployed PFDs"
          ~analytic:summary.mean ~simulated:pooled
          (Compare.wilson ~expected:summary.mean
             ~successes:(Simulator.Fleet.total_failures fleet)
             ~trials ());
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

let shuffled rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let law_outcome ~oracle ~quantity ~cases ~violations =
  mk ~oracle ~quantity ~analytic:0.0 ~simulated:(float_of_int violations)
    {
      Compare.pass = violations = 0;
      comparator = "exact";
      detail =
        Printf.sprintf "%d/%d randomized cases violate the law" violations
          cases;
    }

let adjudication_unit_identity =
  let id = "adjudication-unit-identity" in
  Oracle.make ~id
    ~description:
      "compose unit t, compose t unit and t decide identically on every \
       output vector (unit is a two-sided identity of compose)"
    (fun s ->
      let rng = Oracle.rng s ~salt:14 in
      let cases = 200 in
      let left = ref 0 and right = ref 0 in
      for _ = 1 to cases do
        let t = random_term rng ~depth:3 in
        let outs = random_vector_for rng t ~abstaining:true in
        let base = Simulator.Adjudicator.combine t outs in
        let lu =
          Simulator.Adjudicator.(combine (compose unit t)) outs
        in
        let ru =
          Simulator.Adjudicator.(combine (compose t unit)) outs
        in
        if not (Simulator.Channel.equal lu base) then incr left;
        if not (Simulator.Channel.equal ru base) then incr right
      done;
      [
        law_outcome ~oracle:id ~quantity:"compose unit t ≡ t" ~cases
          ~violations:!left;
        law_outcome ~oracle:id ~quantity:"compose t unit ≡ t" ~cases
          ~violations:!right;
      ])

let adjudication_vote_permutation =
  let id = "adjudication-vote-permutation" in
  Oracle.make ~id
    ~description:
      "every calculus term adjudicates counts, so combine is invariant \
       under permutation of the channel output vector"
    (fun s ->
      let rng = Oracle.rng s ~salt:15 in
      let cases = 200 in
      let violations = ref 0 in
      for _ = 1 to cases do
        let t = random_term rng ~depth:3 in
        let outs = random_vector_for rng t ~abstaining:true in
        let a = Simulator.Adjudicator.combine t outs in
        let b = Simulator.Adjudicator.combine t (shuffled rng outs) in
        if not (Simulator.Channel.equal a b) then incr violations
      done;
      [
        law_outcome ~oracle:id ~quantity:"combine t (perm v) ≡ combine t v"
          ~cases ~violations:!violations;
      ])

let adjudication_fallback_idempotent =
  let id = "adjudication-fallback-idempotent" in
  Oracle.make ~id
    ~description:
      "fallback t t decides as t on abstain-free vectors (the backup \
       can only be reached when the primary abstains)"
    (fun s ->
      let rng = Oracle.rng s ~salt:16 in
      let cases = 200 in
      let violations = ref 0 in
      for _ = 1 to cases do
        let t = random_term rng ~depth:3 in
        let outs = random_vector_for rng t ~abstaining:false in
        let a = Simulator.Adjudicator.(combine (fallback t t)) outs in
        let b = Simulator.Adjudicator.combine t outs in
        if not (Simulator.Channel.equal a b) then incr violations
      done;
      [
        law_outcome ~oracle:id ~quantity:"fallback t t ≡ t (abstain-free)"
          ~cases ~violations:!violations;
      ])

(* The seed's adjudicator, reimplemented verbatim (polymorphic equality,
   double traversal and all) as the reference the calculus must
   bit-match on its legacy domain. *)
let legacy_combine ~required outputs =
  let shutdowns =
    List.length
      (List.filter (fun o -> o = Simulator.Channel.Shutdown) outputs)
  in
  if shutdowns >= required then Simulator.Channel.Shutdown
  else Simulator.Channel.No_action

let adjudication_vote_vs_legacy =
  let id = "adjudication-vote-vs-legacy" in
  Oracle.make ~id
    ~description:
      "vote ~required bit-matches the retained legacy M-out-of-N \
       adjudicator (and its system_fails predicate) on abstain-free \
       vectors, across every threshold the vector admits"
    (fun s ->
      let rng = Oracle.rng s ~salt:17 in
      let cases = 200 in
      let checked = ref 0 in
      let decisions = ref 0 and fails = ref 0 in
      for _ = 1 to cases do
        let n = 1 + Rng.int rng 7 in
        let outs = random_outputs rng ~n ~abstaining:false in
        for required = 1 to n do
          incr checked;
          let t = Simulator.Adjudicator.m_out_of_n ~required in
          let calculus = Simulator.Adjudicator.combine t outs in
          let legacy = legacy_combine ~required outs in
          if not (Simulator.Channel.equal calculus legacy) then
            incr decisions;
          if
            Simulator.Adjudicator.system_fails t outs
            <> not (Simulator.Channel.equal legacy Simulator.Channel.Shutdown)
          then incr fails
        done
      done;
      [
        law_outcome ~oracle:id ~quantity:"combine ≡ legacy decision"
          ~cases:!checked ~violations:!decisions;
        law_outcome ~oracle:id ~quantity:"system_fails ≡ legacy predicate"
          ~cases:!checked ~violations:!fails;
      ])

(* Independent evaluator of the graceful-degradation scenario — a 2-of-3
   vote falling back to an OR when abstentions break the quorum —
   written directly over the output list, with no reference to the
   counts algebra. *)
let reference_cascade outs =
  let shut =
    List.length
      (List.filter
         (fun o -> Simulator.Channel.equal o Simulator.Channel.Shutdown)
         outs)
  in
  let active =
    List.length
      (List.filter
         (fun o -> not (Simulator.Channel.equal o Simulator.Channel.Abstain))
         outs)
  in
  if shut >= 2 then Simulator.Channel.Shutdown
  else if active >= 2 then Simulator.Channel.No_action
  else if shut >= 1 then Simulator.Channel.Shutdown
  else if active >= 1 then Simulator.Channel.No_action
  else Simulator.Channel.Abstain

let adjudication_graceful_degradation =
  let id = "adjudication-graceful-degradation" in
  Oracle.make ~id
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
      let cases = 300 in
      let violations = ref 0 in
      for _ = 1 to cases do
        let outs = random_outputs rng ~n:channels ~abstaining:true in
        if
          not
            (Simulator.Channel.equal
               (Simulator.Adjudicator.combine cascade outs)
               (reference_cascade outs))
        then incr violations
      done;
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
        Array.init r (fun _ ->
            Simulator.Devteam.adjudicated_system_pfd_from_universe ~detection
              rng u ~channels ~adjudicator:cascade)
      in
      let list_mean = Stats.mean list_samples in
      let counts_mean = Stats.mean counts_samples in
      [
        law_outcome ~oracle:id ~quantity:"combine ≡ independent evaluator"
          ~cases ~violations:!violations;
        mk ~oracle:id ~quantity:"policy_mu vs list-path sampler" ~analytic:mu
          ~simulated:list_mean
          (Compare.mean_z ~bound ~expected:mu ~sigma ~trials:r ~mean:list_mean
             ());
        mk ~oracle:id ~quantity:"policy_mu vs counts-path sampler"
          ~analytic:mu ~simulated:counts_mean
          (Compare.mean_z ~bound ~expected:mu ~sigma ~trials:r
             ~mean:counts_mean ());
      ])

let adjudication_policy_vs_binomial =
  let id = "adjudication-policy-vs-binomial" in
  Oracle.make ~id
    ~description:
      "policy closed forms at detection 0 (binom_pmf double sum over \
       carriers and abstainers) vs the legacy Voting closed forms \
       (regularized-incomplete-beta tails) on the scenario architecture"
    (fun s ->
      let u = Scenario.universe s and arch = Scenario.arch s in
      let channels = Core.Voting.channels arch in
      let policy = Core.Voting.arch_policy arch in
      let mu = Core.Voting.mu arch u in
      let pmu = Core.Voting.policy_mu policy ~channels u in
      let var = Core.Voting.var arch u in
      let pvar = Core.Voting.policy_var policy ~channels u in
      let p_some = Core.Voting.p_some_system_fault arch u in
      let pp_some =
        Core.Voting.policy_p_some_system_fault policy ~channels u
      in
      let rr = Core.Voting.risk_ratio_vs_single arch u in
      let prr =
        Core.Voting.policy_risk_ratio_vs_single policy ~channels u
      in
      let dist = Core.Voting.policy_pfd_dist policy ~channels u in
      [
        mk ~oracle:id ~quantity:"policy_mu vs Voting.mu" ~analytic:mu
          ~simulated:pmu (Compare.approx mu pmu);
        mk ~oracle:id ~quantity:"policy_var vs Voting.var" ~analytic:var
          ~simulated:pvar
          (Compare.approx ~abs:1e-15 var pvar);
        mk ~oracle:id ~quantity:"policy_p_some vs Voting.p_some"
          ~analytic:p_some ~simulated:pp_some (Compare.approx p_some pp_some);
        mk ~oracle:id ~quantity:"policy risk ratio vs Voting risk ratio"
          ~analytic:rr ~simulated:prr (Compare.approx rr prr);
        mk ~oracle:id ~quantity:"policy_pfd_dist mean vs policy_mu"
          ~analytic:pmu
          ~simulated:(Core.Pfd_dist.mean dist)
          (Compare.approx pmu (Core.Pfd_dist.mean dist));
      ])

(* ---- the assessment service vs the one-shot evaluator ---- *)

let serve_vs_cli =
  let id = "serve-vs-cli" in
  Oracle.make ~id
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
      let requests =
        [|
          { Serve.Proto.id = "o-moments"; u = spec; verb = Serve.Proto.Moments };
          {
            Serve.Proto.id = "o-risk";
            u = spec;
            verb = Serve.Proto.Risk_ratio { channels; required };
          };
          {
            Serve.Proto.id = "o-dist";
            u = spec;
            verb = Serve.Proto.Pfd_dist { channels; required; bins };
          };
          {
            Serve.Proto.id = "o-fleet";
            u = spec;
            verb =
              Serve.Proto.Fleet_mission
                {
                  plants = 4 + Rng.int rng 5;
                  demands_per_plant = 50 + Rng.int rng 100;
                  mission_demands = 500;
                  salt = Rng.int rng 1024;
                  shards = 1 + Rng.int rng 8;
                  space = 1024;
                };
          };
        |]
      in
      let seed = Scenario.sim_seed s in
      let disp = Serve.Dispatcher.create ~pool:(Exec.Pool.default ()) ~seed in
      let served = Serve.Dispatcher.run_batch disp requests in
      let identity =
        Array.to_list
          (Array.mapi
             (fun i (res : Serve.Dispatcher.result) ->
               let direct = Serve.Engine.eval ~seed requests.(i) in
               let same = if String.equal res.Serve.Dispatcher.line direct then 1.0 else 0.0 in
               mk ~oracle:id
                 ~quantity:
                   (Printf.sprintf "%s byte-identity"
                      (Serve.Proto.verb_name requests.(i)))
                 ~analytic:1.0 ~simulated:same (Compare.exact_bits 1.0 same))
             served)
      in
      (* Cross-read: the served moments body must carry the closed forms
         bit-exactly (the JSON float codec round-trips exactly). *)
      let served_mu2 =
        match Serve.Proto.parse_response (served.(0)).Serve.Dispatcher.line with
        | Ok resp -> (
            match
              Option.bind resp.Serve.Proto.resp_body (fun b ->
                  Option.bind (Obs.Json.member "mu2" b) Obs.Json.to_float)
            with
            | Some v -> v
            | None -> nan)
        | Error _ -> nan
      in
      let mu2 = Core.Moments.mu2 u in
      identity
      @ [
          mk ~oracle:id ~quantity:"served mu2 field" ~analytic:mu2
            ~simulated:served_mu2 (Compare.exact_bits mu2 served_mu2);
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

let sweep ?max_channels ?max_faults ?replications ?only ~seed ~cases () =
  if cases < 1 then invalid_arg "Registry.sweep: cases must be >= 1";
  let chosen =
    match only with
    | None -> all
    | Some prefix ->
        List.filter (fun o -> String.starts_with ~prefix (Oracle.id o)) all
  in
  if chosen = [] then
    invalid_arg "Registry.sweep: no registered oracle matches the prefix";
  let chosen_ids = List.map Oracle.id chosen in
  let parent = Rng.create ~seed in
  let tally = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace tally id (0, 0)) chosen_ids;
  let checks = ref 0 in
  let failed = ref [] in
  for case = 0 to cases - 1 do
    let scenario =
      Scenario.generate ?max_channels ?max_faults ?replications
        (Rng.split parent ~index:case)
    in
    List.iter
      (fun o ->
        let n, f =
          match Hashtbl.find_opt tally o.Oracle.oracle with
          | Some t -> t
          | None -> (0, 0)
        in
        let bad = if Oracle.passed o then 0 else 1 in
        Hashtbl.replace tally o.Oracle.oracle (n + 1, f + bad);
        incr checks;
        if bad = 1 then failed := (case, scenario, o) :: !failed)
      (List.concat_map (fun o -> Oracle.run o scenario) chosen)
  done;
  let per_oracle =
    List.map
      (fun id ->
        match Hashtbl.find_opt tally id with
        | Some (n, f) -> (id, n, f)
        | None -> (id, 0, 0))
      chosen_ids
  in
  { cases; checks = !checks; failed = List.rev !failed; per_oracle }

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
