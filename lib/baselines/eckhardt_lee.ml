open Numerics
module Region = Demandspace.Region

let difficulty space demand_id =
  (* theta(x) = P(a random version fails on x)
              = 1 - prod over faults covering x of (1 - p_i). *)
  let acc = ref 0.0 in
  for i = 0 to Demandspace.Space.fault_count space - 1 do
    if Bitset.mem (Region.members (Demandspace.Space.region space i)) demand_id
    then
      acc :=
        !acc +. Float.log1p (-.Demandspace.Space.introduction_prob space i)
  done;
  -.Float.expm1 !acc

let mean_single space =
  let profile = Demandspace.Space.profile space in
  Kahan.sum_over (Demandspace.Space.size space) (fun x ->
      Demandspace.Profile.probability profile (Demandspace.Demand.of_int x)
      *. difficulty space x)

let mean_pair space =
  let profile = Demandspace.Space.profile space in
  Kahan.sum_over (Demandspace.Space.size space) (fun x ->
      let theta = difficulty space x in
      Demandspace.Profile.probability profile (Demandspace.Demand.of_int x)
      *. theta *. theta)

let difficulty_variance space =
  (* Var_X(theta(X)) under the profile: the EL excess of the pair's mean
     PFD over the independence prediction. *)
  let m = mean_single space in
  let profile = Demandspace.Space.profile space in
  Kahan.sum_over (Demandspace.Space.size space) (fun x ->
      let d = difficulty space x -. m in
      Demandspace.Profile.probability profile (Demandspace.Demand.of_int x)
      *. d *. d)

let el_identity_gap space =
  (* E(Theta_2) - E(Theta_1)^2 - Var(theta(X)) = 0: the Eckhardt-Lee
     decomposition; returned so tests can assert it vanishes. *)
  let m1 = mean_single space in
  mean_pair space -. (m1 *. m1) -. difficulty_variance space
