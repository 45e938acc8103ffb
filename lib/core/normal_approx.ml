open Numerics

type bound = { confidence : float; k : float; single : float; pair : float }

let single_bound u ~k =
  Bounds.confidence_bound ~mu:(Moments.mu1 u) ~sigma:(Moments.sigma1 u) ~k

let pair_bound u ~k =
  Bounds.confidence_bound ~mu:(Moments.mu2 u) ~sigma:(Moments.sigma2 u) ~k

let bound_at_confidence u ~confidence =
  let k = Normal_dist.ppf confidence in
  { confidence; k; single = single_bound u ~k; pair = pair_bound u ~k }

let bound_ratio u ~k =
  let s = single_bound u ~k in
  if Stats.is_zero s then nan else pair_bound u ~k /. s

let bound_difference u ~k = single_bound u ~k -. pair_bound u ~k

let single_cdf u x =
  Normal_dist.cdf ~mu:(Moments.mu1 u) ~sigma:(Moments.sigma1 u) x

let single_quantile u ~confidence =
  Normal_dist.ppf ~mu:(Moments.mu1 u) ~sigma:(Moments.sigma1 u) confidence

type worked_example = {
  mu1 : float;
  sigma1 : float;
  k : float;
  pmax : float;
  single_bound : float;
  pair_bound_eq11 : float;
  pair_bound_eq12 : float;
}

let worked_example ?(mu1 = 0.01) ?(sigma1 = 0.001) ?(k = 1.0) ?(pmax = 0.1) () =
  (* The Section 5.1 numerical example: single bound 0.011, eq. (11) bound
     0.001 + k-term, eq. (12) bound sqrt(pmax(1+pmax)) * 0.011. *)
  let single_bound = mu1 +. (k *. sigma1) in
  let ratio = Bounds.sigma_ratio_bound pmax in
  let pair_bound_eq11 = (pmax *. mu1) +. (k *. ratio *. sigma1) in
  let pair_bound_eq12 = ratio *. single_bound in
  { mu1; sigma1; k; pmax; single_bound; pair_bound_eq11; pair_bound_eq12 }

let normality_ks_distance u =
  (* Sup-distance between the exact single-version PFD distribution and its
     moment-matched normal: the experiment E15 metric. *)
  let dist = Pfd_dist.single u in
  let mu = Pfd_dist.mean dist and sigma = Pfd_dist.std dist in
  if Stats.is_zero sigma then 1.0
  else
    let lo = mu -. (6.0 *. sigma) and hi = mu +. (6.0 *. sigma) in
    Ks.distance_between_cdfs
      (fun x -> Pfd_dist.cdf dist x)
      (fun x -> Normal_dist.cdf ~mu ~sigma x)
      ~lo ~hi
