(* Unit and property tests for the core fault-creation model. *)

let rng0 () = Numerics.Rng.create ~seed:2024

(* A small universe whose moments are computable by hand:
   faults (p=0.5, q=0.1), (p=0.2, q=0.3).
   mu1 = 0.05 + 0.06 = 0.11
   mu2 = 0.025 + 0.012 = 0.037
   var1 = 0.25*0.01 + 0.16*0.09 = 0.0025 + 0.0144 = 0.0169
   var2 = 0.25*0.75*0.01 + 0.04*0.96*0.09 = 0.001875 + 0.003456 = 0.005331 *)
let tiny () = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ]

let random_universe ?(n = 12) ?(p_hi = 0.6) rng =
  Core.Universe.uniform_random rng ~n ~p_lo:0.001 ~p_hi ~total_q:0.7

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_make () =
  let f = Core.Fault.make ~p:0.3 ~q:0.2 in
  Prop.check_close "p" 0.3 (Core.Fault.p f);
  Prop.check_close "q" 0.2 (Core.Fault.q f);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Fault.make: p must lie in [0, 1]") (fun () ->
      ignore (Core.Fault.make ~p:1.2 ~q:0.1));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Fault.make: q must lie in [0, 1]") (fun () ->
      ignore (Core.Fault.make ~p:0.1 ~q:(-0.1)))

let test_fault_contributions () =
  let f = Core.Fault.make ~p:0.5 ~q:0.1 in
  Prop.check_close "mean" 0.05 (Core.Fault.mean_contribution f);
  Prop.check_close "variance" 0.0025 (Core.Fault.variance_contribution f);
  Prop.check_close "common mean" 0.025 (Core.Fault.common_mean_contribution f);
  Prop.check_close "common variance" 0.001875 (Core.Fault.common_variance_contribution f)

let test_fault_scale () =
  let f = Core.Fault.make ~p:0.4 ~q:0.1 in
  Prop.check_close "scaled" 0.2 (Core.Fault.p (Core.Fault.scale_p f 0.5));
  List.iter
    (fun factor ->
      Alcotest.check_raises
        (Printf.sprintf "scale by %g" factor)
        (Invalid_argument "Fault.scale_p: scaled probability leaves [0, 1]")
        (fun () -> ignore (Core.Fault.scale_p f factor)))
    [ 3.0; nan ]

(* ------------------------------------------------------------------ *)
(* Universe                                                            *)
(* ------------------------------------------------------------------ *)

let test_universe_accessors () =
  let u = tiny () in
  Alcotest.(check int) "size" 2 (Core.Universe.size u);
  Prop.check_close "pmax" 0.5 (Core.Universe.pmax u);
  Prop.check_close "qmax" 0.3 (Core.Universe.qmax u);
  Prop.check_close "total_q" 0.4 (Core.Universe.total_q u);
  Alcotest.(check bool) "disjoint valid" true (Core.Universe.validate_disjoint u)

let test_universe_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Universe.of_faults: empty universe")
    (fun () -> ignore (Core.Universe.of_pairs []))

let test_universe_scale () =
  let u = Core.Universe.scale_all_p (tiny ()) 0.5 in
  Prop.check_close "scaled p0" 0.25 (Core.Universe.ps u).(0);
  Prop.check_close "scaled p1" 0.1 (Core.Universe.ps u).(1);
  Prop.check_close "q unchanged" 0.1 (Core.Universe.qs u).(0)

let test_universe_set_p () =
  let u = Core.Universe.set_p (tiny ()) 1 0.9 in
  Prop.check_close "set p" 0.9 (Core.Universe.ps u).(1);
  Prop.check_close "other p untouched" 0.5 (Core.Universe.ps u).(0)

let test_universe_generators () =
  let rng = rng0 () in
  let u = Core.Universe.uniform_random rng ~n:30 ~p_lo:0.1 ~p_hi:0.4 ~total_q:0.6 in
  Alcotest.(check int) "size" 30 (Core.Universe.size u);
  Prop.check_close ~eps:1e-9 "total_q as requested" 0.6 (Core.Universe.total_q u);
  Array.iter
    (fun p ->
      if p < 0.1 || p > 0.4 then Alcotest.fail "p outside requested range")
    (Core.Universe.ps u);
  let hq = Core.Universe.high_quality rng ~n:40 ~expected_faults:0.5 ~total_q:0.2 in
  Prop.check_close ~eps:1e-9 "expected fault count" 0.5
    (Core.Moments.expected_fault_count hq);
  let dr = Core.Universe.dirichlet_random rng ~n:25 ~p_lo:0.0 ~p_hi:0.3 ~alpha:0.5 ~total_q:0.5 in
  Prop.check_close ~eps:1e-9 "dirichlet total q" 0.5 (Core.Universe.total_q dr)

(* ------------------------------------------------------------------ *)
(* Moments                                                             *)
(* ------------------------------------------------------------------ *)

let test_moments_hand_computed () =
  let u = tiny () in
  Prop.check_close "mu1" 0.11 (Core.Moments.mu1 u);
  Prop.check_close "mu2" 0.037 (Core.Moments.mu2 u);
  Prop.check_close "var1" 0.0169 (Core.Moments.var1 u);
  Prop.check_close "var2" 0.005331 (Core.Moments.var2 u);
  Prop.check_close "sigma1" (sqrt 0.0169) (Core.Moments.sigma1 u);
  Prop.check_close "expected faults" 0.7 (Core.Moments.expected_fault_count u);
  Prop.check_close "expected common" 0.29 (Core.Moments.expected_common_fault_count u)

let test_moments_channels () =
  let u = tiny () in
  Prop.check_close "mu_n 1 = mu1" (Core.Moments.mu1 u) (Core.Moments.mu_n u ~channels:1);
  Prop.check_close "mu_n 2 = mu2" (Core.Moments.mu2 u) (Core.Moments.mu_n u ~channels:2);
  Prop.check_close "mu_n 3" ((0.125 *. 0.1) +. (0.008 *. 0.3))
    (Core.Moments.mu_n u ~channels:3);
  Prop.check_close "var_n 2 = var2" (Core.Moments.var2 u)
    (Core.Moments.var_n u ~channels:2)

let test_moments_record () =
  let m = Core.Moments.compute (tiny ()) in
  Prop.check_close "record mu1" 0.11 m.Core.Moments.mu1;
  Prop.check_close "record sigma2" (sqrt 0.005331) m.Core.Moments.sigma2

let test_mean_gain () =
  Prop.check_close ~eps:1e-12 "gain" (0.11 /. 0.037) (Core.Moments.mean_gain (tiny ()))

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_golden_threshold () =
  (* the paper prints the truncated value 0.618033987 *)
  Prop.check_close ~eps:1e-8 "threshold value" 0.618033987 Core.Bounds.golden_threshold;
  Alcotest.(check bool) "below threshold shrinks" true
    (Core.Bounds.variance_term_shrinks 0.6);
  Alcotest.(check bool) "above threshold grows" false
    (Core.Bounds.variance_term_shrinks 0.63)

let test_sigma_ratio_paper_values () =
  Prop.check_close ~eps:5e-4 "pmax 0.5" 0.866 (Core.Bounds.sigma_ratio_bound 0.5);
  Prop.check_close ~eps:5e-4 "pmax 0.1" 0.332 (Core.Bounds.sigma_ratio_bound 0.1);
  Prop.check_close ~eps:5e-4 "pmax 0.01" 0.100 (Core.Bounds.sigma_ratio_bound 0.01)

let test_paper_table () =
  let table = Core.Bounds.paper_table () in
  Alcotest.(check int) "three rows" 3 (Array.length table);
  Prop.check_close "first pmax" 0.5 (fst table.(0))

let test_eq4_eq9_on_tiny () =
  let u = tiny () in
  Prop.check_close "eq4 bound" (0.5 *. 0.11) (Core.Bounds.mu2_upper u);
  Alcotest.(check bool) "eq4 holds" true
    (Core.Moments.mu2 u <= Core.Bounds.mu2_upper u);
  Alcotest.(check bool) "eq9 holds" true
    (Core.Moments.sigma2 u <= Core.Bounds.sigma2_upper u)

let test_eq12 () =
  Prop.check_close ~eps:1e-9 "eq12 arithmetic"
    (Core.Bounds.sigma_ratio_bound 0.1 *. 0.011)
    (Core.Bounds.pair_bound_from_bound ~single_bound:0.011 ~pmax:0.1)

(* ------------------------------------------------------------------ *)
(* Fault_count                                                         *)
(* ------------------------------------------------------------------ *)

let test_prob_none_some () =
  let ps = [| 0.5; 0.2 |] in
  Prop.check_close "prob none" 0.4 (Core.Fault_count.prob_none ps);
  Prop.check_close "prob some" 0.6 (Core.Fault_count.prob_some ps)

let test_prob_some_tiny_p () =
  (* 1 - (1-1e-12)^3 = 3e-12 to first order; naive float arithmetic would
     return garbage near machine epsilon. *)
  let ps = [| 1e-12; 1e-12; 1e-12 |] in
  (* exact value is 3e-12 - 3e-24 + 1e-36 *)
  Prop.check_close ~eps:5e-24 "cancellation-free small probabilities" 3e-12
    (Core.Fault_count.prob_some ps)

let test_n_probabilities () =
  let u = tiny () in
  Prop.check_close "P(N1=0)" (0.5 *. 0.8) (Core.Fault_count.p_n1_zero u);
  Prop.check_close "P(N2=0)" (0.75 *. 0.96) (Core.Fault_count.p_n2_zero u);
  Prop.check_close "risk ratio" ((1.0 -. 0.72) /. (1.0 -. 0.4))
    (Core.Fault_count.risk_ratio u);
  Prop.check_close ~eps:1e-12 "success ratio = prod(1+p)" (1.5 *. 1.2)
    (Core.Fault_count.success_ratio u)

let test_poisson_binomial_small () =
  let dist = Core.Fault_count.poisson_binomial [| 0.5; 0.2 |] in
  Prop.check_close "P(0)" 0.4 dist.(0);
  Prop.check_close "P(1)" ((0.5 *. 0.8) +. (0.5 *. 0.2)) dist.(1);
  Prop.check_close "P(2)" 0.1 dist.(2);
  Prop.check_close "normalised" 1.0 (Numerics.Kahan.sum_array dist)

let test_poisson_binomial_binomial_case () =
  (* Homogeneous probabilities reduce to the binomial distribution. *)
  let n = 10 and p = 0.3 in
  let dist = Core.Fault_count.poisson_binomial (Array.make n p) in
  for k = 0 to n do
    let expected =
      exp
        (Numerics.Special.log_choose n k
        +. (float_of_int k *. log p)
        +. (float_of_int (n - k) *. log (1.0 -. p)))
    in
    Prop.check_close ~eps:1e-12 (Printf.sprintf "binomial P(%d)" k) expected dist.(k)
  done

let test_poisson_binomial_moments () =
  let ps = [| 0.1; 0.4; 0.7; 0.05 |] in
  let dist = Core.Fault_count.poisson_binomial ps in
  Prop.check_close ~eps:1e-12 "mean = sum p" 1.25
    (Core.Fault_count.mean_of_distribution dist);
  Prop.check_close ~eps:1e-12 "variance = sum p(1-p)"
    ((0.1 *. 0.9) +. (0.4 *. 0.6) +. (0.7 *. 0.3) +. (0.05 *. 0.95))
    (Core.Fault_count.variance_of_distribution dist)

let test_nk_consistency () =
  let u = tiny () in
  Prop.check_close "N1 dist head = p_n1_zero" (Core.Fault_count.p_n1_zero u)
    (Core.Fault_count.n1_distribution u).(0);
  Prop.check_close "N2 dist head = p_n2_zero" (Core.Fault_count.p_n2_zero u)
    (Core.Fault_count.n2_distribution u).(0);
  Prop.check_close "channels=2 matches n2" (Core.Fault_count.p_n2_pos u)
    (Core.Fault_count.p_nk_pos u ~channels:2)

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

(* The finite-difference reference itself, on functions with known
   derivatives. *)
let test_deriv () =
  Prop.check_close ~eps:1e-7 "central d/dx sin at 0.7" (cos 0.7)
    (Deriv.central sin 0.7);
  Prop.check_close ~eps:1e-9 "richardson d/dx sin at 0.7" (cos 0.7)
    (Deriv.richardson sin 0.7);
  Prop.check_close ~eps:1e-5 "second derivative of x^3 at 2" 12.0
    (Deriv.second (fun x -> x ** 3.0) 2.0)

let test_deriv_gradient () =
  let f x = (x.(0) *. x.(0)) +. (3.0 *. x.(1)) in
  let g = Deriv.gradient f [| 2.0; 5.0 |] in
  Prop.check_close ~eps:1e-6 "df/dx0" 4.0 g.(0);
  Prop.check_close ~eps:1e-6 "df/dx1" 3.0 g.(1)

let test_partial_matches_numerical () =
  let rng = rng0 () in
  for _ = 1 to 50 do
    let n = 2 + Numerics.Rng.int rng 8 in
    let ps =
      Array.init n (fun _ -> 0.02 +. (0.9 *. Numerics.Rng.float rng))
    in
    let i = Numerics.Rng.int rng n in
    let analytic = Core.Sensitivity.risk_ratio_partial ps i in
    let numeric =
      Deriv.partial
        (fun v -> Core.Fault_count.risk_ratio_of_ps v)
        ps i
    in
    if abs_float (analytic -. numeric) > 1e-5 *. max 1.0 (abs_float analytic)
    then
      Alcotest.fail
        (Printf.sprintf "partial mismatch: analytic %g vs numeric %g" analytic
           numeric)
  done

let test_stationary_p1_closed_form () =
  List.iter
    (fun p2 ->
      let p1z = Core.Sensitivity.stationary_p1 ~p2 in
      let d = Core.Sensitivity.risk_ratio_partial [| p1z; p2 |] 0 in
      Prop.check_close ~eps:1e-10 (Printf.sprintf "derivative zero at p1z (p2=%g)" p2)
        0.0 d;
      Alcotest.(check bool) "p1z in (0,1)" true (p1z > 0.0 && p1z < 1.0))
    [ 0.05; 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_stationary_sign_pattern () =
  let p2 = 0.3 in
  let p1z = Core.Sensitivity.stationary_p1 ~p2 in
  Alcotest.(check bool) "negative below" true
    (Core.Sensitivity.risk_ratio_partial [| p1z /. 2.0; p2 |] 0 < 0.0);
  Alcotest.(check bool) "positive above" true
    (Core.Sensitivity.risk_ratio_partial [| p1z *. 2.0; p2 |] 0 > 0.0)

let test_stationary_numeric_search () =
  let ps = [| 0.2; 0.3 |] in
  match Core.Sensitivity.stationary_point ps 0 ~lo:0.001 ~hi:0.9 with
  | None -> Alcotest.fail "stationary point not found"
  | Some x ->
      Prop.check_close ~eps:1e-6 "matches closed form"
        (Core.Sensitivity.stationary_p1 ~p2:0.3)
        x

let test_k_derivative_nonnegative () =
  let rng = rng0 () in
  for _ = 1 to 200 do
    let n = 1 + Numerics.Rng.int rng 15 in
    let b = Array.init n (fun _ -> Numerics.Rng.float rng) in
    let k = 0.01 +. (0.99 *. Numerics.Rng.float rng) in
    let d = Core.Sensitivity.risk_ratio_k_derivative ~b ~k in
    if d < -1e-10 then
      Alcotest.fail (Printf.sprintf "Appendix B violated: dR/dk = %g" d)
  done

let test_classify () =
  (* With p1 well above the stationary point, decreasing p1 lowers the
     ratio: improvement increases the gain. *)
  Alcotest.(check bool) "above p1z improves gain" true
    (Core.Sensitivity.classify_single_improvement [| 0.5; 0.3 |] 0
    = Core.Sensitivity.Increases_gain);
  Alcotest.(check bool) "below p1z reduces gain" true
    (Core.Sensitivity.classify_single_improvement [| 0.02; 0.3 |] 0
    = Core.Sensitivity.Decreases_gain)

let test_risk_ratio_two_consistent () =
  let p1 = 0.23 and p2 = 0.41 in
  Prop.check_close ~eps:1e-12 "closed n=2 form matches generic"
    (Core.Fault_count.risk_ratio_of_ps [| p1; p2 |])
    (Core.Sensitivity.risk_ratio_two ~p1 ~p2)

(* ------------------------------------------------------------------ *)
(* Improvement                                                         *)
(* ------------------------------------------------------------------ *)

let test_improvement_steps () =
  let u = tiny () in
  let p' = Core.Universe.ps (Core.Improvement.apply_step u (Core.Improvement.Proportional 0.5)) in
  Prop.check_close "proportional" 0.25 p'.(0);
  let p'' =
    Core.Universe.ps
      (Core.Improvement.apply_step u
         (Core.Improvement.Single { index = 1; factor = 0.1 }))
  in
  Prop.check_close "single leaves others" 0.5 p''.(0);
  Prop.check_close "single scales target" 0.02 p''.(1);
  let p3 =
    Core.Universe.ps
      (Core.Improvement.apply_step u (Core.Improvement.Per_fault [| 0.5; 2.0 |]))
  in
  Prop.check_close "per fault" 0.4 p3.(1)

let test_improvement_errors () =
  let u = tiny () in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Improvement.apply_step: fault index out of range")
    (fun () ->
      ignore
        (Core.Improvement.apply_step u
           (Core.Improvement.Single { index = 5; factor = 0.5 })));
  Alcotest.check_raises "bad vector length"
    (Invalid_argument "Improvement.apply_step: factor vector length mismatch")
    (fun () ->
      ignore (Core.Improvement.apply_step u (Core.Improvement.Per_fault [| 1.0 |])))

let test_obviously_better () =
  let u = tiny () in
  let better = Core.Improvement.apply_step u (Core.Improvement.Proportional 0.8) in
  Alcotest.(check bool) "scaling down is obviously better" true
    (Core.Improvement.is_obviously_better u better);
  Alcotest.(check bool) "identity is not" false
    (Core.Improvement.is_obviously_better u u);
  let worse = Core.Universe.set_p u 0 0.9 in
  Alcotest.(check bool) "an increase is not" false
    (Core.Improvement.is_obviously_better u worse)

let test_trajectory () =
  let u = tiny () in
  let traj =
    Core.Improvement.proportional_trajectory u
      ~factors:(Numerics.Grid.linspace ~lo:0.2 ~hi:1.0 ~n:5)
  in
  Alcotest.(check int) "points" 5 (Array.length traj);
  (* Appendix B: the risk ratio rises with the factor. *)
  for i = 0 to 3 do
    Alcotest.(check bool) "ratio non-decreasing" true
      (traj.(i).Core.Improvement.risk_ratio
      <= traj.(i + 1).Core.Improvement.risk_ratio +. 1e-12)
  done;
  Prop.check_close ~eps:1e-12 "factor 1 recovers the universe"
    (Core.Fault_count.risk_ratio u)
    traj.(4).Core.Improvement.risk_ratio

(* ------------------------------------------------------------------ *)
(* Pfd_dist                                                            *)
(* ------------------------------------------------------------------ *)

let test_exact_tiny () =
  let dist = Core.Pfd_dist.exact_single (tiny ()) in
  (* support: 0, 0.1, 0.3, 0.4 with probs 0.4, 0.1, 0.24... let's check:
     P(0)   = 0.5*0.8 = 0.4
     P(0.1) = 0.5*0.8 = 0.4   (fault 1 only)
     P(0.3) = 0.5*0.2 = 0.1   (fault 2 only)
     P(0.4) = 0.5*0.2 = 0.1   (both) *)
  Alcotest.(check int) "support size" 4 (Core.Pfd_dist.size dist);
  Prop.check_close "P(X<=0)" 0.4 (Core.Pfd_dist.cdf dist 0.0);
  Prop.check_close "P(X<=0.1)" 0.8 (Core.Pfd_dist.cdf dist 0.1);
  Prop.check_close "P(X<=0.3)" 0.9 (Core.Pfd_dist.cdf dist 0.3);
  Prop.check_close "P(X<=0.4)" 1.0 (Core.Pfd_dist.cdf dist 0.4);
  Prop.check_close "P(X>0)" 0.6 (Core.Pfd_dist.prob_positive dist)

let test_exact_moments_match_closed_form () =
  let rng = rng0 () in
  for _ = 1 to 20 do
    let u = random_universe ~n:10 rng in
    let dist = Core.Pfd_dist.exact_single u in
    Prop.check_close ~eps:1e-10 "dist mean = mu1" (Core.Moments.mu1 u)
      (Core.Pfd_dist.mean dist);
    Prop.check_close ~eps:1e-10 "dist variance = var1" (Core.Moments.var1 u)
      (Core.Pfd_dist.variance dist);
    let pair = Core.Pfd_dist.exact_pair u in
    Prop.check_close ~eps:1e-10 "pair mean = mu2" (Core.Moments.mu2 u)
      (Core.Pfd_dist.mean pair);
    Prop.check_close ~eps:1e-10 "pair variance = var2" (Core.Moments.var2 u)
      (Core.Pfd_dist.variance pair)
  done

let test_prob_positive_matches_n1 () =
  let rng = rng0 () in
  let u = random_universe ~n:8 rng in
  (* all q_i > 0 in this generator, so Theta > 0 iff N > 0 *)
  Prop.check_close ~eps:1e-12 "P(Theta1>0) = P(N1>0)" (Core.Fault_count.p_n1_pos u)
    (Core.Pfd_dist.prob_positive (Core.Pfd_dist.exact_single u))

let test_quantile_properties () =
  let dist = Core.Pfd_dist.exact_single (tiny ()) in
  Prop.check_close "q at 0.3 -> 0" 0.0 (Core.Pfd_dist.quantile dist 0.3);
  Prop.check_close "q at 0.5 -> 0.1" 0.1 (Core.Pfd_dist.quantile dist 0.5);
  Prop.check_close "q at 1.0 -> max" 0.4 (Core.Pfd_dist.quantile dist 1.0);
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Pfd_dist.quantile: alpha outside [0, 1]") (fun () ->
      ignore (Core.Pfd_dist.quantile dist 1.5))

let test_grid_approximates_exact () =
  let rng = rng0 () in
  let u = random_universe ~n:14 rng in
  let exact = Core.Pfd_dist.exact_single u in
  let grid = Core.Pfd_dist.grid_single u ~bins:4096 in
  Prop.check_close ~eps:2e-4 "grid mean close" (Core.Pfd_dist.mean exact)
    (Core.Pfd_dist.mean grid);
  Prop.check_close ~eps:0.02 "grid q95 close"
    (Core.Pfd_dist.quantile exact 0.95)
    (Core.Pfd_dist.quantile grid 0.95)

let test_exact_limit () =
  let u = Core.Universe.homogeneous ~n:30 ~p:0.1 ~q:0.01 in
  Alcotest.(check bool) "raises beyond limit" true
    (try
       ignore (Core.Pfd_dist.exact_single u);
       false
     with Invalid_argument _ -> true);
  (* the dispatcher falls back to the grid instead *)
  let d = Core.Pfd_dist.single u in
  Prop.check_close ~eps:1e-3 "dispatcher grid mean" (Core.Moments.mu1 u)
    (Core.Pfd_dist.mean d)

let test_sampling_from_dist () =
  let rng = rng0 () in
  let dist = Core.Pfd_dist.exact_single (tiny ()) in
  let n = 100_000 in
  let acc = Numerics.Kahan.create () in
  for _ = 1 to n do
    Numerics.Kahan.add acc (Core.Pfd_dist.sample dist rng)
  done;
  Prop.check_close ~eps:2e-3 "sample mean matches" 0.11
    (Numerics.Kahan.total acc /. float_of_int n)

let test_of_mass_merging () =
  let d = Core.Pfd_dist.of_mass [ (0.1, 0.3); (0.1, 0.2); (0.0, 0.5) ] in
  Alcotest.(check int) "merged duplicates" 2 (Core.Pfd_dist.size d);
  Prop.check_close "cdf mid" 0.5 (Core.Pfd_dist.cdf d 0.05)

let test_of_mass_rejects_nan () =
  Alcotest.check_raises "NaN support point"
    (Invalid_argument "Pfd_dist.of_mass: NaN support point") (fun () ->
      ignore (Core.Pfd_dist.of_mass [ (0.1, 0.5); (nan, 0.5) ]));
  Alcotest.check_raises "NaN mass"
    (Invalid_argument "Pfd_dist.of_mass: NaN mass") (fun () ->
      ignore (Core.Pfd_dist.of_mass [ (0.1, 0.5); (0.2, nan) ]));
  (* NaN is rejected even on points the positive-mass filter would drop *)
  Alcotest.check_raises "NaN mass on zero-mass point"
    (Invalid_argument "Pfd_dist.of_mass: NaN support point") (fun () ->
      ignore (Core.Pfd_dist.of_mass [ (0.1, 0.5); (nan, 0.0) ]))

let test_of_sorted_arrays () =
  (* bit-parity with of_mass on the same points, zero-mass points
     dropped before the strictly-increasing check *)
  let d =
    Core.Pfd_dist.of_sorted_arrays
      [| 0.0; 0.05; 0.05; 0.1 |]
      [| 0.2; 0.0; 0.3; 0.5 |]
  in
  let via_mass =
    Core.Pfd_dist.of_mass [ (0.0, 0.2); (0.05, 0.3); (0.1, 0.5) ]
  in
  Alcotest.(check (array int64))
    "support bit-identical to of_mass"
    (Array.map Int64.bits_of_float (Core.Pfd_dist.support via_mass))
    (Array.map Int64.bits_of_float (Core.Pfd_dist.support d));
  Alcotest.(check (array int64))
    "masses bit-identical to of_mass"
    (Array.map Int64.bits_of_float (Core.Pfd_dist.masses via_mass))
    (Array.map Int64.bits_of_float (Core.Pfd_dist.masses d));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Pfd_dist.of_sorted_arrays: length mismatch") (fun () ->
      ignore (Core.Pfd_dist.of_sorted_arrays [| 0.1 |] [| 0.5; 0.5 |]));
  Alcotest.check_raises "unsorted support"
    (Invalid_argument
       "Pfd_dist.of_sorted_arrays: support not sorted strictly increasing")
    (fun () ->
      ignore (Core.Pfd_dist.of_sorted_arrays [| 0.2; 0.1 |] [| 0.5; 0.5 |]));
  Alcotest.check_raises "duplicate support"
    (Invalid_argument
       "Pfd_dist.of_sorted_arrays: support not sorted strictly increasing")
    (fun () ->
      ignore (Core.Pfd_dist.of_sorted_arrays [| 0.1; 0.1 |] [| 0.5; 0.5 |]));
  Alcotest.check_raises "NaN support"
    (Invalid_argument "Pfd_dist.of_sorted_arrays: NaN support point")
    (fun () ->
      ignore (Core.Pfd_dist.of_sorted_arrays [| 0.1; nan |] [| 0.5; 0.5 |]));
  Alcotest.check_raises "no positive mass"
    (Invalid_argument "Pfd_dist.of_sorted_arrays: no positive mass")
    (fun () -> ignore (Core.Pfd_dist.of_sorted_arrays [| 0.1 |] [| 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Normal_approx and Assessment                                        *)
(* ------------------------------------------------------------------ *)

let test_worked_example_values () =
  let ex = Core.Normal_approx.worked_example () in
  Prop.check_close "single" 0.011 ex.Core.Normal_approx.single_bound;
  Prop.check_close ~eps:1e-6 "eq11" 0.0013316624 ex.Core.Normal_approx.pair_bound_eq11;
  Prop.check_close ~eps:1e-6 "eq12" 0.0036482872 ex.Core.Normal_approx.pair_bound_eq12

let test_bound_ratio_under_eq12 () =
  let rng = rng0 () in
  for _ = 1 to 50 do
    let u = random_universe rng in
    let k = Numerics.Normal_dist.ppf 0.99 in
    let ratio = Core.Normal_approx.bound_ratio u ~k in
    let guarantee = Core.Bounds.sigma_ratio_bound (Core.Universe.pmax u) in
    if ratio > guarantee +. 1e-12 then
      Alcotest.fail
        (Printf.sprintf "eq.(12) violated: ratio %g > guarantee %g" ratio
           guarantee)
  done

let test_bound_at_confidence () =
  let u = tiny () in
  let b = Core.Normal_approx.bound_at_confidence u ~confidence:0.99 in
  Prop.check_close ~eps:1e-9 "k at 99%" 2.3263478740408408 b.Core.Normal_approx.k;
  Alcotest.(check bool) "pair below single" true
    (b.Core.Normal_approx.pair < b.Core.Normal_approx.single)

let test_normal_cdf_quantile_roundtrip () =
  let u = tiny () in
  let x = Core.Normal_approx.single_quantile u ~confidence:0.9 in
  Prop.check_close ~eps:1e-9 "roundtrip" 0.9 (Core.Normal_approx.single_cdf u x)

let test_sil () =
  Alcotest.(check string) "SIL2" "SIL2"
    (Core.Assessment.sil_to_string (Core.Assessment.sil_of_pfd 5e-3));
  Alcotest.(check string) "SIL4" "SIL4"
    (Core.Assessment.sil_to_string (Core.Assessment.sil_of_pfd 5e-5));
  Alcotest.(check string) "below SIL1" "below SIL1"
    (Core.Assessment.sil_to_string (Core.Assessment.sil_of_pfd 0.5));
  Prop.check_close "ceiling SIL3" 1e-3
    (Core.Assessment.pfd_ceiling_of_sil Core.Assessment.SIL3)

let test_assess () =
  let u = tiny () in
  (* single bound at 90%: 0.11 + 1.2816*0.13 = 0.2766, so the lax
     requirement must sit above that *)
  let v = Core.Assessment.assess u ~required_bound:0.4 ~confidence:0.9 in
  Alcotest.(check bool) "single meets lax bound" true v.Core.Assessment.single_meets;
  Alcotest.(check bool) "pair meets lax bound" true v.Core.Assessment.pair_meets;
  let strict = Core.Assessment.assess u ~required_bound:1e-6 ~confidence:0.9 in
  Alcotest.(check bool) "nobody meets strict bound" false
    strict.Core.Assessment.pair_meets

let test_required_pmax () =
  (* round trip: if we require exactly the eq. (12) bound, the computed
     pmax should reproduce the one we started from. *)
  let single_bound = 0.011 in
  let pmax = 0.07 in
  let target = Core.Bounds.pair_bound_from_bound ~single_bound ~pmax in
  match
    Core.Assessment.required_pmax_for_bound ~single_bound ~required_bound:target
  with
  | None -> Alcotest.fail "expected a pmax"
  | Some p -> Prop.check_close ~eps:1e-9 "inverse of eq.(12)" pmax p

let test_required_pmax_trivial () =
  match
    Core.Assessment.required_pmax_for_bound ~single_bound:0.01 ~required_bound:0.02
  with
  | Some p -> Prop.check_close "no diversity needed" 1.0 p
  | None -> Alcotest.fail "expected Some 1.0"

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let gen_probs = Prop.array ~min_len:1 ~max_len:15 (Prop.float_range 1e-6 0.999)

(* (p, q) fault lists of [1..max_len] faults. *)
let gen_pairs ~max_len ~p_lo ~q_lo ~q_hi =
  Prop.array ~min_len:1 ~max_len
    (Prop.pair (Prop.float_range p_lo 1.0) (Prop.float_range q_lo q_hi))

let prop_risk_ratio_le_one () =
  Prop.check ~cases:300 "eq. (10): risk ratio <= 1" gen_probs (fun ps ->
      let r = Core.Fault_count.risk_ratio_of_ps ps in
      assert (r <= 1.0 +. 1e-12))

let prop_mu2_le_pmax_mu1 () =
  Prop.check ~cases:300 "eq. (4): mu2 <= pmax*mu1"
    (gen_pairs ~max_len:15 ~p_lo:1e-6 ~q_lo:1e-6 ~q_hi:0.05)
    (fun pairs ->
      let u = Core.Universe.of_pairs (Array.to_list pairs) in
      assert (
        Core.Moments.mu2 u <= (Core.Universe.pmax u *. Core.Moments.mu1 u) +. 1e-15))

let prop_sigma2_bound () =
  Prop.check ~cases:300 "eq. (9): sigma2 <= sqrt(pmax(1+pmax))*sigma1"
    (gen_pairs ~max_len:15 ~p_lo:1e-6 ~q_lo:1e-6 ~q_hi:0.05)
    (fun pairs ->
      let u = Core.Universe.of_pairs (Array.to_list pairs) in
      assert (Core.Moments.sigma2 u <= Core.Bounds.sigma2_upper u +. 1e-15))

let prop_success_ratio_identity () =
  Prop.check ~cases:300 "footnote 5: P(N2=0)/P(N1=0) = prod(1+p)" gen_probs
    (fun ps ->
      let u =
        Core.Universe.of_pairs
          (Array.to_list (Array.map (fun p -> (p, 0.01)) ps))
      in
      let direct =
        Core.Fault_count.p_n2_zero u /. Core.Fault_count.p_n1_zero u
      in
      let ratio = Core.Fault_count.success_ratio u in
      assert (abs_float (direct -. ratio) <= 1e-9 *. ratio))

let prop_appendix_b () =
  Prop.check ~cases:300 "Appendix B: dR/dk >= 0"
    (Prop.pair
       (Prop.array ~min_len:1 ~max_len:12 (Prop.float_range 1e-4 1.0))
       (Prop.float_range 0.01 1.0))
    (fun (b, k) ->
      assert (Core.Sensitivity.risk_ratio_k_derivative ~b ~k >= -1e-10))

let prop_exact_dist_mean () =
  Prop.check ~cases:100 "exact distribution mean equals mu1"
    (gen_pairs ~max_len:10 ~p_lo:0.0 ~q_lo:0.0 ~q_hi:0.09)
    (fun pairs ->
      let u = Core.Universe.of_pairs (Array.to_list pairs) in
      let d = Core.Pfd_dist.exact_single u in
      assert (abs_float (Core.Pfd_dist.mean d -. Core.Moments.mu1 u) < 1e-10))

let prop_cdf_monotone () =
  Prop.check ~cases:100 "exact CDF is monotone"
    (Prop.triple
       (gen_pairs ~max_len:8 ~p_lo:0.01 ~q_lo:0.001 ~q_hi:0.1)
       (Prop.float_range 0.0 1.0) (Prop.float_range 0.0 1.0))
    (fun (pairs, x1, x2) ->
      let u = Core.Universe.of_pairs (Array.to_list pairs) in
      let d = Core.Pfd_dist.exact_single u in
      let lo = min x1 x2 and hi = max x1 x2 in
      assert (Core.Pfd_dist.cdf d lo <= Core.Pfd_dist.cdf d hi +. 1e-12))

let prop_poisson_binomial_normalised () =
  Prop.check ~cases:200 "poisson-binomial sums to 1" gen_probs (fun ps ->
      let total =
        Numerics.Kahan.sum_array (Core.Fault_count.poisson_binomial ps)
      in
      assert (abs_float (total -. 1.0) < 1e-10))

let prop_quantile_cdf_consistency () =
  Prop.check ~cases:100 "quantile and CDF agree"
    (Prop.pair
       (gen_pairs ~max_len:8 ~p_lo:0.01 ~q_lo:0.001 ~q_hi:0.1)
       (Prop.float_range 0.01 0.99))
    (fun (pairs, alpha) ->
      let u = Core.Universe.of_pairs (Array.to_list pairs) in
      let d = Core.Pfd_dist.exact_single u in
      let x = Core.Pfd_dist.quantile d alpha in
      assert (Core.Pfd_dist.cdf d x >= alpha -. 1e-12))

let props =
  [
    Alcotest.test_case "eq. (10): risk ratio <= 1" `Quick
      prop_risk_ratio_le_one;
    Alcotest.test_case "eq. (4): mu2 <= pmax*mu1" `Quick prop_mu2_le_pmax_mu1;
    Alcotest.test_case "eq. (9): sigma2 <= sqrt(pmax(1+pmax))*sigma1" `Quick
      prop_sigma2_bound;
    Alcotest.test_case "footnote 5: P(N2=0)/P(N1=0) = prod(1+p)" `Quick
      prop_success_ratio_identity;
    Alcotest.test_case "Appendix B: dR/dk >= 0" `Quick prop_appendix_b;
    Alcotest.test_case "exact distribution mean equals mu1" `Quick
      prop_exact_dist_mean;
    Alcotest.test_case "exact CDF is monotone" `Quick prop_cdf_monotone;
    Alcotest.test_case "poisson-binomial sums to 1" `Quick
      prop_poisson_binomial_normalised;
    Alcotest.test_case "quantile and CDF agree" `Quick
      prop_quantile_cdf_consistency;
  ]

let () =
  Alcotest.run "core"
    [
      ( "fault",
        [
          Alcotest.test_case "make" `Quick test_fault_make;
          Alcotest.test_case "contributions" `Quick test_fault_contributions;
          Alcotest.test_case "scale" `Quick test_fault_scale;
        ] );
      ( "universe",
        [
          Alcotest.test_case "accessors" `Quick test_universe_accessors;
          Alcotest.test_case "empty" `Quick test_universe_empty;
          Alcotest.test_case "scale" `Quick test_universe_scale;
          Alcotest.test_case "set_p" `Quick test_universe_set_p;
          Alcotest.test_case "generators" `Quick test_universe_generators;
        ] );
      ( "moments",
        [
          Alcotest.test_case "hand computed" `Quick test_moments_hand_computed;
          Alcotest.test_case "channels" `Quick test_moments_channels;
          Alcotest.test_case "record" `Quick test_moments_record;
          Alcotest.test_case "mean gain" `Quick test_mean_gain;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "golden threshold" `Quick test_golden_threshold;
          Alcotest.test_case "paper sigma ratios" `Quick test_sigma_ratio_paper_values;
          Alcotest.test_case "paper table" `Quick test_paper_table;
          Alcotest.test_case "eq4/eq9 on example" `Quick test_eq4_eq9_on_tiny;
          Alcotest.test_case "eq12" `Quick test_eq12;
        ] );
      ( "fault_count",
        [
          Alcotest.test_case "prob none/some" `Quick test_prob_none_some;
          Alcotest.test_case "tiny probabilities" `Quick test_prob_some_tiny_p;
          Alcotest.test_case "N probabilities" `Quick test_n_probabilities;
          Alcotest.test_case "poisson-binomial small" `Quick test_poisson_binomial_small;
          Alcotest.test_case "binomial special case" `Quick
            test_poisson_binomial_binomial_case;
          Alcotest.test_case "count moments" `Quick test_poisson_binomial_moments;
          Alcotest.test_case "nk consistency" `Quick test_nk_consistency;
        ] );
      ( "deriv-reference",
        [
          Alcotest.test_case "deriv" `Quick test_deriv;
          Alcotest.test_case "gradient" `Quick test_deriv_gradient;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "analytic vs numeric" `Quick test_partial_matches_numerical;
          Alcotest.test_case "stationary closed form" `Quick
            test_stationary_p1_closed_form;
          Alcotest.test_case "sign pattern" `Quick test_stationary_sign_pattern;
          Alcotest.test_case "numeric search" `Quick test_stationary_numeric_search;
          Alcotest.test_case "Appendix B" `Quick test_k_derivative_nonnegative;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "n=2 form" `Quick test_risk_ratio_two_consistent;
        ] );
      ( "improvement",
        [
          Alcotest.test_case "steps" `Quick test_improvement_steps;
          Alcotest.test_case "errors" `Quick test_improvement_errors;
          Alcotest.test_case "obviously better" `Quick test_obviously_better;
          Alcotest.test_case "trajectory" `Quick test_trajectory;
        ] );
      ( "pfd_dist",
        [
          Alcotest.test_case "exact tiny" `Quick test_exact_tiny;
          Alcotest.test_case "moments match" `Quick test_exact_moments_match_closed_form;
          Alcotest.test_case "prob positive" `Quick test_prob_positive_matches_n1;
          Alcotest.test_case "quantiles" `Quick test_quantile_properties;
          Alcotest.test_case "grid vs exact" `Quick test_grid_approximates_exact;
          Alcotest.test_case "exact limit" `Quick test_exact_limit;
          Alcotest.test_case "sampling" `Slow test_sampling_from_dist;
          Alcotest.test_case "mass merging" `Quick test_of_mass_merging;
          Alcotest.test_case "of_mass rejects NaN" `Quick
            test_of_mass_rejects_nan;
          Alcotest.test_case "of_sorted_arrays" `Quick test_of_sorted_arrays;
        ] );
      ( "normal_approx-assessment",
        [
          Alcotest.test_case "worked example" `Quick test_worked_example_values;
          Alcotest.test_case "eq12 covers ratio" `Quick test_bound_ratio_under_eq12;
          Alcotest.test_case "bound at confidence" `Quick test_bound_at_confidence;
          Alcotest.test_case "cdf/quantile roundtrip" `Quick
            test_normal_cdf_quantile_roundtrip;
          Alcotest.test_case "sil" `Quick test_sil;
          Alcotest.test_case "assess" `Quick test_assess;
          Alcotest.test_case "required pmax" `Quick test_required_pmax;
          Alcotest.test_case "required pmax trivial" `Quick test_required_pmax_trivial;
        ] );
      ("properties", props);
    ]
