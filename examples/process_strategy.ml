(* Process-strategy example: a development organisation deciding between
   (a) investing in uniform process improvement, (b) targeting its most
   common fault class, and (c) adding a second diverse channel — the
   decision problem of the paper's Sections 4.2 and the Hatton debate.

   Run with:  dune exec examples/process_strategy.exe *)

let () =
  let rng = Numerics.Rng.create ~seed:11 in
  let universe =
    Core.Universe.power_law_random rng ~n:25 ~p_lo:0.01 ~p_hi:0.35
      ~q_exponent:(-1.2) ~total_q:0.3
  in
  let k = Numerics.Normal_dist.ppf 0.99 in
  let describe label u =
    Fmt.pr "%-34s mu1=%.5f  bound99=%.5f  pair mu2=%.6f  risk ratio=%.4f@."
      label (Core.Moments.mu1 u)
      (Core.Normal_approx.single_bound u ~k)
      (Core.Moments.mu2 u)
      (Core.Fault_count.risk_ratio u)
  in
  Fmt.pr "current process (n=%d, pmax=%.3f):@." (Core.Universe.size universe)
    (Core.Universe.pmax universe);
  describe "  as-is" universe;

  (* Option a: uniform improvement — everything gets 2x less likely.
     Appendix B: this always increases the relative gain of diversity. *)
  let uniform =
    Core.Improvement.apply_step universe (Core.Improvement.Proportional 0.5)
  in
  describe "  (a) uniform 2x improvement" uniform;

  (* Option b: kill the most likely fault class specifically. *)
  let worst = ref 0 in
  Core.Universe.iteri
    (fun i f ->
      if Core.Fault.p f > Core.Fault.p (Core.Universe.fault universe !worst)
      then worst := i)
    universe;
  let targeted =
    Core.Improvement.apply_step universe
      (Core.Improvement.Single { index = !worst; factor = 0.1 })
  in
  describe
    (Printf.sprintf "  (b) 10x improvement of fault %d" !worst)
    targeted;

  (* Option c: keep the process, add a diverse channel. *)
  Fmt.pr "  (c) 1oo2 pair from the as-is process:     bound99=%.5f@."
    (Core.Normal_approx.pair_bound universe ~k);

  (* How the diversity gain moves under each improvement (Section 4.2):
     the eq. (10) ratio falls = diversity helps more. *)
  Fmt.pr "@.effect of each process change on the gain from diversity:@.";
  let ratio u = Core.Fault_count.risk_ratio u in
  Fmt.pr "  as-is risk ratio:        %.4f@." (ratio universe);
  Fmt.pr "  after (a):               %.4f  (always falls: Appendix B)@."
    (ratio uniform);
  Fmt.pr "  after (b):               %.4f  (can move either way: Appendix A)@."
    (ratio targeted);

  (* The Hatton question: how good must one version become to match the
     pair? *)
  let break_even = Baselines.Hatton.break_even_factor universe in
  Fmt.pr
    "@.to match the pair on mean PFD, a single version needs every fault \
     probability multiplied by %.3f (eq. (4) guarantees this is <= pmax = \
     %.3f)@."
    break_even
    (Core.Universe.pmax universe);

  (* And the forced-diversity upside (Section 1 / LM): channel B developed
     with deliberately different methods. *)
  let forced = Extensions.Forced.complementary rng universe ~strength:1.0 in
  Fmt.pr
    "@.forced diversity (fully divergent second process): pair mean PFD \
     %.6f vs %.6f non-forced (gain %.2fx)@."
    (Extensions.Forced.mu_pair forced)
    (Core.Moments.mu2 universe)
    (Extensions.Forced.divergence_gain forced);

  (* Correlation stress test (Section 6.1): how robust is the non-forced
     prediction if mistakes cluster via common conceptual errors? *)
  let correlated =
    Extensions.Correlated.of_universe_with_shock universe ~cluster_size:5
      ~shock_prob:0.15 ~lift:1.5
  in
  Fmt.pr
    "@.with correlated mistakes (shock 0.15, lift 1.5, marginals fixed):@.";
  Fmt.pr "  risk ratio %.4f vs %.4f under independence@."
    (Extensions.Correlated.risk_ratio correlated)
    (ratio universe);
  Fmt.pr "  sigma1     %.5f vs %.5f under independence@."
    (Extensions.Correlated.sigma1 correlated)
    (Core.Moments.sigma1 universe)
