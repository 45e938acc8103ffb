open Numerics

type t = { support : float array; log_weights : float array }

let of_pfd_dist dist =
  {
    support = Core.Pfd_dist.support dist;
    log_weights = Array.map log (Core.Pfd_dist.masses dist);
  }

let of_mass pairs =
  let dist = Core.Pfd_dist.of_mass pairs in
  of_pfd_dist dist

(* The support is a Pfd_dist support (sorted, distinct) and never changes,
   so the posterior needs no sort or merge; masses that underflow to 0 are
   dropped by [of_sorted_arrays]. *)
let to_pfd_dist t =
  let m = Special.logsumexp t.log_weights in
  Core.Pfd_dist.of_sorted_arrays t.support
    (Array.map (fun lw -> exp (lw -. m)) t.log_weights)

let observe t ~demands ~failures =
  if demands < 0 || failures < 0 || failures > demands then
    invalid_arg "Bayes.observe: need 0 <= failures <= demands";
  (* Binomial likelihood: theta^failures (1-theta)^(demands-failures),
     accumulated in log space so 10^9 failure-free demands are fine. *)
  let log_weights =
    Array.mapi
      (fun i lw ->
        let theta = t.support.(i) in
        let log_like =
          (if failures = 0 then 0.0
           else if theta <= 0.0 then neg_infinity
           else float_of_int failures *. log theta)
          +.
          if demands = failures then 0.0
          else if theta >= 1.0 then neg_infinity
          else float_of_int (demands - failures) *. Float.log1p (-.theta)
        in
        lw +. log_like)
      t.log_weights
  in
  if Array.for_all (fun lw -> lw = neg_infinity) log_weights then
    invalid_arg "Bayes.observe: observation impossible under the prior";
  { t with log_weights }

let observe_failure_free t ~demands = observe t ~demands ~failures:0

let mean t = Core.Pfd_dist.mean (to_pfd_dist t)

let quantile t alpha = Core.Pfd_dist.quantile (to_pfd_dist t) alpha

let prob_at_most t bound = Core.Pfd_dist.cdf (to_pfd_dist t) bound

let posterior_trajectory t ~bound ~demand_counts =
  Array.map
    (fun demands ->
      let post = observe_failure_free t ~demands in
      (demands, prob_at_most post bound))
    demand_counts

let demands_for_confidence t ~bound ~confidence ~max_demands =
  if not (0.0 < confidence && confidence < 1.0) then
    invalid_arg "Bayes.demands_for_confidence: confidence outside (0, 1)";
  (* P(theta <= bound | T failure-free demands) is non-decreasing in T;
     binary-search the smallest sufficient T. *)
  if prob_at_most t bound >= confidence then Some 0
  else if
    prob_at_most (observe_failure_free t ~demands:max_demands) bound
    < confidence
  then None
  else begin
    let lo = ref 0 and hi = ref max_demands in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if prob_at_most (observe_failure_free t ~demands:mid) bound >= confidence
      then hi := mid
      else lo := mid
    done;
    Some !hi
  end
