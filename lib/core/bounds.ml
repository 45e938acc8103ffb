let golden_threshold = (sqrt 5.0 -. 1.0) /. 2.0

let variance_term_shrinks p = p *. p *. (1.0 -. (p *. p)) <= p *. (1.0 -. p)

let sigma_ratio_bound pmax =
  if not (pmax >= 0.0 && pmax <= 1.0) then
    invalid_arg "Bounds.sigma_ratio_bound: pmax outside [0, 1]";
  sqrt (pmax *. (1.0 +. pmax))

let mu2_upper u = Universe.pmax u *. Moments.mu1 u

let sigma2_upper u = sigma_ratio_bound (Universe.pmax u) *. Moments.sigma1 u

let confidence_bound ~mu ~sigma ~k = mu +. (k *. sigma)

let pair_bound_from_moments u ~k =
  (* Eq. (11): mu2 + k*sigma2 <= pmax*mu1 + k*sqrt(pmax(1+pmax))*sigma1. *)
  let pmax = Universe.pmax u in
  (pmax *. Moments.mu1 u)
  +. (k *. sigma_ratio_bound pmax *. Moments.sigma1 u)

let pair_bound_from_bound ~single_bound ~pmax =
  (* Eq. (12): the looser bound usable when only (mu1 + k sigma1) is known. *)
  if single_bound < 0.0 then
    invalid_arg "Bounds.pair_bound_from_bound: negative bound";
  sigma_ratio_bound pmax *. single_bound

let paper_table_pmax = [| 0.5; 0.1; 0.01 |]

let paper_table () =
  Array.map (fun pmax -> (pmax, sigma_ratio_bound pmax)) paper_table_pmax
