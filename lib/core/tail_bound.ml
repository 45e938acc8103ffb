open Numerics

(* Log of the moment generating function of the PFD: the PFD is a sum of
   independent two-point variables (q_i with probability p_i, else 0), so
   log E[e^{lambda Theta}] = sum_i log(1 - p_i + p_i e^{lambda q_i}),
   evaluated stably via log1p(p_i (e^{lambda q_i} - 1)). *)
let log_mgf ~probs ~values lambda =
  Kahan.sum_over (Array.length probs) (fun i ->
      Float.log1p (probs.(i) *. Float.expm1 (lambda *. values.(i))))

let chernoff_exponent ~probs ~values x =
  (* sup_{lambda >= 0} (lambda x - log MGF(lambda)), found by golden
     section on a bracket grown until the objective turns over. *)
  let objective lambda = (lambda *. x) -. log_mgf ~probs ~values lambda in
  let rec grow hi best =
    if hi > 1e9 then hi
    else
      let v = objective hi in
      if v < best then hi else grow (hi *. 4.0) v
  in
  let hi = grow 1.0 (objective 0.0) in
  let lambda_star =
    Rootfind.minimize_golden (fun l -> -.objective l) ~lo:0.0 ~hi
  in
  max 0.0 (objective lambda_star)

let chernoff_sf_of_vectors ~probs ~values x =
  let mean = Kahan.dot probs values in
  if x <= mean then 1.0 (* Chernoff is vacuous at or below the mean *)
  else exp (-.chernoff_exponent ~probs ~values x)

let chernoff_sf_single u x =
  chernoff_sf_of_vectors ~probs:(Universe.ps u) ~values:(Universe.qs u) x

let chernoff_sf_pair u x =
  chernoff_sf_of_vectors
    ~probs:(Array.map (fun p -> p *. p) (Universe.ps u))
    ~values:(Universe.qs u) x

let hoeffding_sf_of_vectors ~probs ~values x =
  (* Hoeffding: the i-th term lies in [0, q_i], so
     P(Theta - mean >= t) <= exp(-2 t^2 / sum q_i^2). Cruder than Chernoff
     but evaluable on a napkin — the assessor's sanity check. *)
  let mean = Kahan.dot probs values in
  if x <= mean then 1.0
  else
    let t = x -. mean in
    let denom =
      Kahan.sum_over (Array.length values) (fun i -> values.(i) *. values.(i))
    in
    if Stats.is_zero denom then 0.0 else exp (-2.0 *. t *. t /. denom)

let hoeffding_sf_single u x =
  hoeffding_sf_of_vectors ~probs:(Universe.ps u) ~values:(Universe.qs u) x

let guaranteed_bound_single u ~confidence =
  (* Smallest x with Chernoff P(Theta1 > x) <= 1 - confidence: a RIGOROUS
     counterpart of the Section 5 mu + k sigma bound (which relies on the
     unproven normal approximation). Bisection on x over [mu, total_q]. *)
  if not (0.0 < confidence && confidence < 1.0) then
    invalid_arg "Tail_bound.guaranteed_bound_single: confidence outside (0, 1)";
  let target = 1.0 -. confidence in
  let mu = Moments.mu1 u in
  let hi = Universe.total_q u in
  if chernoff_sf_single u hi > target then hi
  else
    Rootfind.bisect ~tol:1e-12
      (fun x -> chernoff_sf_single u x -. target)
      ~lo:mu ~hi

let guaranteed_bound_pair u ~confidence =
  if not (0.0 < confidence && confidence < 1.0) then
    invalid_arg "Tail_bound.guaranteed_bound_pair: confidence outside (0, 1)";
  let target = 1.0 -. confidence in
  let mu = Moments.mu2 u in
  let hi = Universe.total_q u in
  if chernoff_sf_pair u hi > target then hi
  else
    Rootfind.bisect ~tol:1e-12
      (fun x -> chernoff_sf_pair u x -. target)
      ~lo:mu ~hi
