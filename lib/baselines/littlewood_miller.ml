open Numerics
module Region = Demandspace.Region

type two_process = {
  space : Demandspace.Space.t;
  probs_a : float array;
  probs_b : float array;
}

let create space ~probs_a ~probs_b =
  let n = Demandspace.Space.fault_count space in
  if Array.length probs_a <> n || Array.length probs_b <> n then
    invalid_arg "Littlewood_miller.create: probability vector length mismatch";
  let check name v =
    Array.iter
      (fun p ->
        if not (p >= 0.0 && p <= 1.0) then
          invalid_arg ("Littlewood_miller.create: " ^ name ^ " outside [0, 1]"))
      v
  in
  check "probs_a" probs_a;
  check "probs_b" probs_b;
  { space; probs_a; probs_b }

let same_process space =
  let probs =
    Array.init (Demandspace.Space.fault_count space) (fun i ->
        Demandspace.Space.introduction_prob space i)
  in
  { space; probs_a = probs; probs_b = Array.copy probs }

let difficulty_with probs space demand_id =
  let acc = ref 0.0 in
  for i = 0 to Demandspace.Space.fault_count space - 1 do
    if Bitset.mem (Region.members (Demandspace.Space.region space i)) demand_id
    then acc := !acc +. Float.log1p (-.probs.(i))
  done;
  -.Float.expm1 !acc

let difficulty_a t x = difficulty_with t.probs_a t.space x
let difficulty_b t x = difficulty_with t.probs_b t.space x

let sum_over_profile t f =
  let profile = Demandspace.Space.profile t.space in
  Kahan.sum_over (Demandspace.Space.size t.space) (fun x ->
      Demandspace.Profile.probability profile (Demandspace.Demand.of_int x)
      *. f x)

let mean_single_a t = sum_over_profile t (difficulty_a t)
let mean_single_b t = sum_over_profile t (difficulty_b t)

let mean_pair t =
  sum_over_profile t (fun x -> difficulty_a t x *. difficulty_b t x)

let difficulty_covariance t =
  (* Cov_X(theta_A(X), theta_B(X)): LM's headline quantity. Negative
     covariance — achievable with forced diversity — makes the pair
     *better* than the independence product. *)
  let ma = mean_single_a t and mb = mean_single_b t in
  sum_over_profile t (fun x ->
      (difficulty_a t x -. ma) *. (difficulty_b t x -. mb))

let lm_identity_gap t =
  mean_pair t -. (mean_single_a t *. mean_single_b t) -. difficulty_covariance t
