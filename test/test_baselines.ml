(* Tests for the baseline models (independence, Eckhardt-Lee,
   Littlewood-Miller, Hatton). *)

let rng0 () = Numerics.Rng.create ~seed:777

let disjoint_space () =
  let profile = Demandspace.Profile.uniform ~size:100 in
  let r1 = Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9 in
  let r2 = Demandspace.Region.interval ~space_size:100 ~lo:20 ~hi:29 in
  Demandspace.Space.create ~profile ~faults:[| (r1, 0.4); (r2, 0.2) |]

let overlapping_space () =
  let profile = Demandspace.Profile.uniform ~size:100 in
  let r1 = Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9 in
  let r2 = Demandspace.Region.interval ~space_size:100 ~lo:5 ~hi:14 in
  Demandspace.Space.create ~profile ~faults:[| (r1, 0.4); (r2, 0.2) |]

(* ------------------------------------------------------------------ *)
(* Independence                                                        *)
(* ------------------------------------------------------------------ *)

let test_independence_formulas () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  Prop.check_close "pair pfd claim" 0.0004
    (Baselines.Independence.pair_pfd ~single_pfd:0.02);
  Prop.check_close "predicted mu2" (0.11 *. 0.11)
    (Baselines.Independence.predicted_mu2 u);
  Prop.check_close ~eps:1e-12 "underestimation" (0.037 /. 0.0121)
    (Baselines.Independence.underestimation_factor u);
  Prop.check_close ~eps:1e-12 "model gain" (0.11 /. 0.037)
    (Baselines.Independence.model_gain u);
  Prop.check_close ~eps:1e-12 "independence gain" (1.0 /. 0.11)
    (Baselines.Independence.independence_gain u)

let test_independence_always_optimistic () =
  let rng = rng0 () in
  for _ = 1 to 50 do
    let u =
      Core.Universe.uniform_random rng ~n:10 ~p_lo:0.01 ~p_hi:0.9 ~total_q:0.5
    in
    if Baselines.Independence.underestimation_factor u < 1.0 -. 1e-12 then
      Alcotest.fail "independence was pessimistic (impossible under EL)"
  done

(* ------------------------------------------------------------------ *)
(* Eckhardt-Lee                                                        *)
(* ------------------------------------------------------------------ *)

let test_el_difficulty_disjoint () =
  let s = disjoint_space () in
  (* inside region 0, theta = p0; outside all regions, theta = 0 *)
  Prop.check_close ~eps:1e-12 "difficulty inside region 0" 0.4
    (Baselines.Eckhardt_lee.difficulty s 5);
  Prop.check_close ~eps:1e-12 "difficulty inside region 1" 0.2
    (Baselines.Eckhardt_lee.difficulty s 25);
  Prop.check_close "difficulty outside" 0.0 (Baselines.Eckhardt_lee.difficulty s 50)

let test_el_difficulty_overlap () =
  let s = overlapping_space () in
  (* on the overlap, theta = 1 - (1-0.4)(1-0.2) = 0.52 *)
  Prop.check_close ~eps:1e-12 "difficulty on overlap" 0.52
    (Baselines.Eckhardt_lee.difficulty s 7)

let test_el_means_match_core_when_disjoint () =
  let s = disjoint_space () in
  let u = Demandspace.Space.to_universe s in
  Prop.check_close ~eps:1e-12 "EL mean single = mu1" (Core.Moments.mu1 u)
    (Baselines.Eckhardt_lee.mean_single s);
  Prop.check_close ~eps:1e-12 "EL mean pair = mu2" (Core.Moments.mu2 u)
    (Baselines.Eckhardt_lee.mean_pair s)

let test_el_identity () =
  let rng = rng0 () in
  for i = 0 to 9 do
    let s =
      Demandspace.Genspace.overlapping_space
        (Numerics.Rng.split rng ~index:i)
        ~width:20 ~height:20 ~n_faults:6 ~max_extent:5 ~p_lo:0.1 ~p_hi:0.7
        ~profile:(Demandspace.Profile.uniform ~size:400)
    in
    let gap = Baselines.Eckhardt_lee.el_identity_gap s in
    if abs_float gap > 1e-12 then
      Alcotest.fail (Printf.sprintf "EL identity violated: gap %g" gap)
  done

let test_el_pair_ge_independence () =
  let rng = rng0 () in
  for i = 0 to 9 do
    let s =
      Demandspace.Genspace.disjoint_space
        (Numerics.Rng.split rng ~index:(100 + i))
        ~width:20 ~height:20 ~n_faults:5 ~max_extent:4 ~p_lo:0.1 ~p_hi:0.6
        ~profile:(Demandspace.Profile.uniform ~size:400)
    in
    let m1 = Baselines.Eckhardt_lee.mean_single s in
    if Baselines.Eckhardt_lee.mean_pair s < (m1 *. m1) -. 1e-15 then
      Alcotest.fail "EL pair mean below independence (impossible)"
  done

(* ------------------------------------------------------------------ *)
(* Littlewood-Miller                                                   *)
(* ------------------------------------------------------------------ *)

let test_lm_same_process_reduces_to_el () =
  let s = disjoint_space () in
  let lm = Baselines.Littlewood_miller.same_process s in
  Prop.check_close ~eps:1e-12 "LM mean A = EL single"
    (Baselines.Eckhardt_lee.mean_single s)
    (Baselines.Littlewood_miller.mean_single_a lm);
  Prop.check_close ~eps:1e-12 "LM pair = EL pair"
    (Baselines.Eckhardt_lee.mean_pair s)
    (Baselines.Littlewood_miller.mean_pair lm);
  Prop.check_close ~eps:1e-12 "LM covariance = EL variance"
    (Baselines.Eckhardt_lee.difficulty_variance s)
    (Baselines.Littlewood_miller.difficulty_covariance lm)

let test_lm_identity () =
  let s = disjoint_space () in
  let lm =
    Baselines.Littlewood_miller.create s ~probs_a:[| 0.4; 0.1 |]
      ~probs_b:[| 0.05; 0.5 |]
  in
  Prop.check_close ~eps:1e-15 "LM decomposition holds" 0.0
    (Baselines.Littlewood_miller.lm_identity_gap lm)

let test_lm_negative_covariance () =
  (* Complementary processes: A likely to hit fault 0, B fault 1. *)
  let s = disjoint_space () in
  let lm =
    Baselines.Littlewood_miller.create s ~probs_a:[| 0.8; 0.01 |]
      ~probs_b:[| 0.01; 0.8 |]
  in
  Alcotest.(check bool) "negative difficulty covariance" true
    (Baselines.Littlewood_miller.difficulty_covariance lm < 0.0);
  Alcotest.(check bool) "pair beats the independence product" true
    (Baselines.Littlewood_miller.mean_pair lm
    < Baselines.Littlewood_miller.mean_single_a lm
      *. Baselines.Littlewood_miller.mean_single_b lm)

let test_lm_validation () =
  let s = disjoint_space () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Littlewood_miller.create: probability vector length mismatch")
    (fun () ->
      ignore (Baselines.Littlewood_miller.create s ~probs_a:[| 0.1 |] ~probs_b:[| 0.1 |]))

(* ------------------------------------------------------------------ *)
(* Hatton                                                              *)
(* ------------------------------------------------------------------ *)

let test_hatton_break_even () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  Prop.check_close ~eps:1e-12 "break even = mu2/mu1" (0.037 /. 0.11)
    (Baselines.Hatton.break_even_factor u);
  Alcotest.(check bool) "break even below pmax" true
    (Baselines.Hatton.break_even_factor u <= Core.Universe.pmax u)

let test_hatton_compare () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  let c = Baselines.Hatton.compare_at u ~improvement_factor:1.0 ~k:2.33 in
  Alcotest.(check bool) "unimproved single loses on mean" true
    c.Baselines.Hatton.diversity_wins_mean;
  let be = Baselines.Hatton.break_even_factor u in
  let c2 = Baselines.Hatton.compare_at u ~improvement_factor:(be /. 2.0) ~k:2.33 in
  Alcotest.(check bool) "well below break-even, single wins on mean" false
    c2.Baselines.Hatton.diversity_wins_mean

let test_hatton_sweep_monotone () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  let sweep =
    Baselines.Hatton.sweep u ~k:2.33 ~factors:[| 1.0; 0.8; 0.6; 0.4; 0.2 |]
  in
  for i = 0 to Array.length sweep - 2 do
    Alcotest.(check bool) "single improves monotonically" true
      (sweep.(i + 1).Baselines.Hatton.single_improved_mu
      <= sweep.(i).Baselines.Hatton.single_improved_mu +. 1e-15)
  done

let test_hatton_validation () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1) ] in
  Alcotest.check_raises "factor out of range"
    (Invalid_argument "Hatton.compare_at: improvement factor must lie in [0, 1]")
    (fun () -> ignore (Baselines.Hatton.compare_at u ~improvement_factor:1.5 ~k:1.0))

let () =
  Alcotest.run "baselines"
    [
      ( "independence",
        [
          Alcotest.test_case "formulas" `Quick test_independence_formulas;
          Alcotest.test_case "always optimistic" `Quick
            test_independence_always_optimistic;
        ] );
      ( "eckhardt-lee",
        [
          Alcotest.test_case "difficulty disjoint" `Quick test_el_difficulty_disjoint;
          Alcotest.test_case "difficulty overlap" `Quick test_el_difficulty_overlap;
          Alcotest.test_case "means match core" `Quick
            test_el_means_match_core_when_disjoint;
          Alcotest.test_case "identity" `Quick test_el_identity;
          Alcotest.test_case "pair >= independence" `Quick test_el_pair_ge_independence;
        ] );
      ( "littlewood-miller",
        [
          Alcotest.test_case "same process = EL" `Quick test_lm_same_process_reduces_to_el;
          Alcotest.test_case "identity" `Quick test_lm_identity;
          Alcotest.test_case "negative covariance" `Quick test_lm_negative_covariance;
          Alcotest.test_case "validation" `Quick test_lm_validation;
        ] );
      ( "hatton",
        [
          Alcotest.test_case "break even" `Quick test_hatton_break_even;
          Alcotest.test_case "compare" `Quick test_hatton_compare;
          Alcotest.test_case "sweep monotone" `Quick test_hatton_sweep_monotone;
          Alcotest.test_case "validation" `Quick test_hatton_validation;
        ] );
    ]
