(* Tests for demand-space transformations, functional diversity, and
   profile-robustness bounds. *)

let rng0 () = Numerics.Rng.create ~seed:808

let make_space () =
  let profile = Demandspace.Profile.uniform ~size:100 in
  let r1 = Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9 in
  let r2 = Demandspace.Region.interval ~space_size:100 ~lo:20 ~hi:29 in
  Demandspace.Space.create ~profile ~faults:[| (r1, 0.4); (r2, 0.3) |]

(* ------------------------------------------------------------------ *)
(* Transform                                                           *)
(* ------------------------------------------------------------------ *)

let test_transform_identity () =
  let t = Demandspace.Transform.identity 10 in
  for i = 0 to 9 do
    Alcotest.(check int) "identity maps to itself" i
      (Demandspace.Transform.apply t i)
  done;
  Alcotest.(check int) "nothing displaced" 0 (Demandspace.Transform.displaced t)

let test_transform_bijection_validation () =
  Alcotest.check_raises "repeated image"
    (Invalid_argument "Transform.of_array: not a bijection") (fun () ->
      ignore (Demandspace.Transform.of_array [| 0; 0; 2 |]));
  Alcotest.check_raises "image out of range"
    (Invalid_argument "Transform.of_array: image out of range") (fun () ->
      ignore (Demandspace.Transform.of_array [| 0; 3 |]))

let test_transform_inverse () =
  let rng = rng0 () in
  let t = Demandspace.Transform.random rng 50 in
  for x = 0 to 49 do
    Alcotest.(check int) "inverse of apply" x
      (Demandspace.Transform.apply_inverse t (Demandspace.Transform.apply t x))
  done

let test_transform_partial_extremes () =
  let rng = rng0 () in
  let t0 = Demandspace.Transform.partial rng 60 ~fraction:0.0 in
  Alcotest.(check int) "fraction 0 is the identity" 0
    (Demandspace.Transform.displaced t0);
  let t1 = Demandspace.Transform.partial rng 200 ~fraction:1.0 in
  Alcotest.(check bool) "fraction 1 displaces most ids" true
    (Demandspace.Transform.displaced t1 > 150)

let test_transform_preimage () =
  (* mapping: rotate ids by 1 (x -> x+1 mod 5). preimage of {2} is {1}. *)
  let t = Demandspace.Transform.of_array [| 1; 2; 3; 4; 0 |] in
  let s = Numerics.Bitset.of_list 5 [ 2 ] in
  Alcotest.(check (list int)) "preimage" [ 1 ]
    (Numerics.Bitset.to_list (Demandspace.Transform.preimage t s))

let test_transform_compose () =
  let rng = rng0 () in
  let a = Demandspace.Transform.random rng 20 in
  let b = Demandspace.Transform.random rng 20 in
  let c = Demandspace.Transform.compose a b in
  for x = 0 to 19 do
    Alcotest.(check int) "composition law"
      (Demandspace.Transform.apply a (Demandspace.Transform.apply b x))
      (Demandspace.Transform.apply c x)
  done

(* ------------------------------------------------------------------ *)
(* Functional diversity                                                *)
(* ------------------------------------------------------------------ *)

let test_functional_identity_is_worst_case () =
  let space = make_space () in
  let model = Extensions.Functional.non_functional space in
  Prop.check_close ~eps:1e-12 "identity sensing = EL pair mean"
    (Baselines.Eckhardt_lee.mean_pair space)
    (Extensions.Functional.mean_pair model);
  Prop.check_close ~eps:1e-12 "gain is 1 at the worst case" 1.0
    (Extensions.Functional.functional_gain model)

let test_functional_hand_computed () =
  (* Two disjoint regions; a transform that maps region 1's demands onto
     region 2's and vice versa makes the channels fail on a demand
     together only when A has fault 1 and B has fault 2 (or symmetric):
     E(pair) = sum_x pi theta(x) theta(Tx) = q1*p1*p2 + q2*p2*p1. *)
  let space = make_space () in
  let forward = Array.init 100 (fun i -> i) in
  for i = 0 to 9 do
    forward.(i) <- 20 + i;
    forward.(20 + i) <- i
  done;
  let t = Demandspace.Transform.of_array forward in
  let model = Extensions.Functional.create space ~sensing_b:t in
  Prop.check_close ~eps:1e-12 "swapped regions"
    ((0.1 *. 0.4 *. 0.3) +. (0.1 *. 0.3 *. 0.4))
    (Extensions.Functional.mean_pair model);
  (* vs the worst case q1 p1^2 + q2 p2^2 = 0.1*0.16 + 0.1*0.09 = 0.025 *)
  Alcotest.(check bool) "swap beats the worst case" true
    (Extensions.Functional.mean_pair model
    < Extensions.Functional.mean_pair (Extensions.Functional.non_functional space))

let test_functional_gain_zero_denominator () =
  (* Zero-denominator path: with no failure region at all the actual pair
     mean is exactly zero and the gain must come back as infinity (the
     transform removes every coincident failure), not as a 0/0 nan. *)
  let profile = Demandspace.Profile.uniform ~size:10 in
  let r = Demandspace.Region.interval ~space_size:10 ~lo:0 ~hi:4 in
  let space = Demandspace.Space.create ~profile ~faults:[| (r, 0.0) |] in
  let model = Extensions.Functional.non_functional space in
  Prop.check_close ~eps:0.0 "pair mean is exactly zero" 0.0
    (Extensions.Functional.mean_pair model);
  Alcotest.(check bool) "gain guard returns infinity" true
    (Extensions.Functional.functional_gain model = infinity)

let test_functional_concrete_pair () =
  let space = make_space () in
  let forward = Array.init 100 (fun i -> i) in
  for i = 0 to 9 do
    forward.(i) <- 20 + i;
    forward.(20 + i) <- i
  done;
  let model =
    Extensions.Functional.create space
      ~sensing_b:(Demandspace.Transform.of_array forward)
  in
  let va = Demandspace.Version.create space [ 0 ] in
  let vb = Demandspace.Version.create space [ 1 ] in
  (* A fails on region 1 ([0,9]); B's input-space failure set is region 2,
     whose plant-space preimage is region 1 — so they coincide. *)
  Prop.check_close ~eps:1e-12 "transformed pair pfd" 0.1
    (Extensions.Functional.pair_pfd_of_versions model va vb);
  let vb' = Demandspace.Version.create space [ 0 ] in
  Prop.check_close ~eps:1e-12 "same fault no longer coincides" 0.0
    (Extensions.Functional.pair_pfd_of_versions model va vb')

let test_functional_monte_carlo_matches () =
  let rng = rng0 () in
  let space = make_space () in
  let model =
    Extensions.Functional.create space
      ~sensing_b:(Demandspace.Transform.random rng 100)
  in
  let acc = Numerics.Welford.create () in
  for _ = 1 to 30_000 do
    Numerics.Welford.add acc (Extensions.Functional.sample_pair_pfd rng model)
  done;
  Prop.check_close ~eps:0.002 "analytic pair mean matches sampling"
    (Extensions.Functional.mean_pair model)
    (Numerics.Welford.mean acc)

let test_functional_continuum_monotone_trend () =
  (* Not pointwise monotone (random permutations), but the fully divergent
     end should beat the worst case clearly. *)
  let rng = rng0 () in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:24 ~height:24 ~n_faults:8
      ~max_extent:4 ~p_lo:0.1 ~p_hi:0.4
      ~profile:(Demandspace.Profile.uniform ~size:(24 * 24))
  in
  let c =
    Extensions.Functional.continuum rng space ~fractions:[| 0.0; 1.0 |]
  in
  let _, at0 = c.(0) and _, at1 = c.(1) in
  Alcotest.(check bool) "full divergence clearly beats identity" true
    (at1 < 0.8 *. at0)

(* ------------------------------------------------------------------ *)
(* Robustness                                                          *)
(* ------------------------------------------------------------------ *)

let test_robust_region_measure () =
  Prop.check_close "bounded rise" 0.25
    (Demandspace.Robustness.worst_case_region_measure ~q:0.2 ~epsilon:0.05);
  Prop.check_close "capped at 1" 1.0
    (Demandspace.Robustness.worst_case_region_measure ~q:0.99 ~epsilon:0.05)

let test_robust_universe_epsilon_zero () =
  let space = make_space () in
  let u0 = Demandspace.Space.to_universe space in
  let ur = Demandspace.Robustness.robust_universe space ~epsilon:0.0 in
  Prop.check_close ~eps:1e-12 "epsilon 0 changes nothing" (Core.Moments.mu2 u0)
    (Core.Moments.mu2 ur)

let test_worst_case_mu2 () =
  let space = make_space () in
  let base = Core.Moments.mu2 (Demandspace.Space.to_universe space) in
  Prop.check_close ~eps:1e-12 "epsilon 0 is the base value" base
    (Demandspace.Robustness.worst_case_mu2 space ~epsilon:0.0);
  (* the adversary pushes mass into region 1 (p^2 = 0.16 > 0.09):
     slope is max p_i^2 while headroom lasts *)
  Prop.check_close ~eps:1e-12 "linear in epsilon with slope max p^2"
    (base +. (0.16 *. 0.05))
    (Demandspace.Robustness.worst_case_mu2 space ~epsilon:0.05);
  Alcotest.(check bool) "monotone in epsilon" true
    (Demandspace.Robustness.worst_case_mu2 space ~epsilon:0.2
    > Demandspace.Robustness.worst_case_mu2 space ~epsilon:0.1)

let test_worst_case_mu2_below_per_region () =
  let rng = rng0 () in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:24 ~height:24 ~n_faults:8
      ~max_extent:4 ~p_lo:0.1 ~p_hi:0.5
      ~profile:(Demandspace.Profile.uniform ~size:(24 * 24))
  in
  List.iter
    (fun epsilon ->
      let sharp = Demandspace.Robustness.worst_case_mu2 space ~epsilon in
      let loose =
        Core.Moments.mu2 (Demandspace.Robustness.robust_universe space ~epsilon)
      in
      Alcotest.(check bool) "sharp bound below per-region bound" true
        (sharp <= loose +. 1e-12))
    [ 0.01; 0.05; 0.2 ]

let test_total_variation () =
  let a = Demandspace.Profile.uniform ~size:4 in
  let b = Demandspace.Profile.of_weights [| 1.0; 1.0; 1.0; 0.0 |] in
  (* TV = 0.5 * (|1/4-1/3|*3 + 1/4) = 0.5 * (0.25 + 0.25) = 0.25 *)
  Prop.check_close ~eps:1e-12 "hand-computed TV" 0.25
    (Demandspace.Robustness.total_variation a b);
  Prop.check_close "TV to itself" 0.0 (Demandspace.Robustness.total_variation a a)

let test_profile_sensitivity () =
  let space = make_space () in
  let alt = Demandspace.Profile.peaked ~size:100 ~peak:5 ~mass:0.5 in
  match
    Demandspace.Robustness.profile_sensitivity space
      ~alternatives:[ ("peaked", alt) ]
  with
  | [ (label, mu1, _) ] ->
      Alcotest.(check string) "label" "peaked" label;
      (* demand 5 (in region 1) now carries half the mass: q1 jumps to
         0.5 + 9*(0.5/99), q2 = 10*(0.5/99). *)
      let q1 = 0.5 +. (9.0 *. (0.5 /. 99.0)) in
      let q2 = 10.0 *. (0.5 /. 99.0) in
      Prop.check_close ~eps:1e-12 "mu1 under the peaked profile"
        ((0.4 *. q1) +. (0.3 *. q2))
        mu1
  | _ -> Alcotest.fail "expected one row"

let () =
  Alcotest.run "functional-robustness"
    [
      ( "transform",
        [
          Alcotest.test_case "identity" `Quick test_transform_identity;
          Alcotest.test_case "validation" `Quick test_transform_bijection_validation;
          Alcotest.test_case "inverse" `Quick test_transform_inverse;
          Alcotest.test_case "partial extremes" `Quick test_transform_partial_extremes;
          Alcotest.test_case "preimage" `Quick test_transform_preimage;
          Alcotest.test_case "compose" `Quick test_transform_compose;
        ] );
      ( "functional",
        [
          Alcotest.test_case "identity worst case" `Quick
            test_functional_identity_is_worst_case;
          Alcotest.test_case "hand computed" `Quick test_functional_hand_computed;
          Alcotest.test_case "concrete pair" `Quick test_functional_concrete_pair;
          Alcotest.test_case "zero-denominator gain" `Quick
            test_functional_gain_zero_denominator;
          Alcotest.test_case "monte carlo" `Slow test_functional_monte_carlo_matches;
          Alcotest.test_case "continuum trend" `Quick
            test_functional_continuum_monotone_trend;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "region measure" `Quick test_robust_region_measure;
          Alcotest.test_case "epsilon zero" `Quick test_robust_universe_epsilon_zero;
          Alcotest.test_case "worst case mu2" `Quick test_worst_case_mu2;
          Alcotest.test_case "sharp below loose" `Quick
            test_worst_case_mu2_below_per_region;
          Alcotest.test_case "total variation" `Quick test_total_variation;
          Alcotest.test_case "profile sensitivity" `Quick test_profile_sensitivity;
        ] );
    ]
