open Numerics

type t = { a : float; b : float }

let create ~a ~b =
  if not (a > 0.0 && b > 0.0) then
    invalid_arg "Beta_prior.create: shapes must be positive";
  { a; b }

let uniform = { a = 1.0; b = 1.0 }
let jeffreys = { a = 0.5; b = 0.5 }

let moment_matched dist =
  (* Match the Beta's mean and variance to a model PFD distribution: the
     'computational convenience' prior an assessor would pick if told only
     the model's first two moments. *)
  let m = Core.Pfd_dist.mean dist in
  let v = Core.Pfd_dist.variance dist in
  if not (0.0 < m && m < 1.0 && v > 0.0) then
    invalid_arg "Beta_prior.moment_matched: degenerate distribution";
  let nu = (m *. (1.0 -. m) /. v) -. 1.0 in
  if nu <= 0.0 then
    invalid_arg "Beta_prior.moment_matched: variance too large for a Beta";
  { a = m *. nu; b = (1.0 -. m) *. nu }

let a t = t.a
let b t = t.b

let observe t ~demands ~failures =
  if demands < 0 || failures < 0 || failures > demands then
    invalid_arg "Beta_prior.observe: need 0 <= failures <= demands";
  (* Conjugate update under the binomial likelihood. *)
  {
    a = t.a +. float_of_int failures;
    b = t.b +. float_of_int (demands - failures);
  }

let observe_failure_free t ~demands = observe t ~demands ~failures:0

let mean t = Betainc.beta_mean ~a:t.a ~b:t.b
let prob_at_most t bound = Betainc.beta_cdf ~a:t.a ~b:t.b bound
let quantile t p = Betainc.beta_ppf ~a:t.a ~b:t.b p

let demands_for_confidence t ~bound ~confidence ~max_demands =
  if not (0.0 < confidence && confidence < 1.0) then
    invalid_arg "Beta_prior.demands_for_confidence: confidence outside (0, 1)";
  if prob_at_most t bound >= confidence then Some 0
  else if
    prob_at_most (observe_failure_free t ~demands:max_demands) bound < confidence
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

let pp ppf t = Fmt.pf ppf "Beta(%.4g, %.4g)" t.a t.b
