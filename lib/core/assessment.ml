type sil = SIL1 | SIL2 | SIL3 | SIL4 | Below_SIL1

let sil_of_pfd pfd =
  if Float.is_nan pfd || pfd < 0.0 then
    invalid_arg "Assessment.sil_of_pfd: invalid PFD";
  if pfd < 1e-5 then SIL4 (* conservatively cap claims at SIL4 *)
  else if pfd < 1e-4 then SIL4
  else if pfd < 1e-3 then SIL3
  else if pfd < 1e-2 then SIL2
  else if pfd < 1e-1 then SIL1
  else Below_SIL1

let sil_to_string = function
  | SIL1 -> "SIL1"
  | SIL2 -> "SIL2"
  | SIL3 -> "SIL3"
  | SIL4 -> "SIL4"
  | Below_SIL1 -> "below SIL1"

let pfd_ceiling_of_sil = function
  | SIL1 -> 1e-1
  | SIL2 -> 1e-2
  | SIL3 -> 1e-3
  | SIL4 -> 1e-4
  | Below_SIL1 -> 1.0

type verdict = {
  required_bound : float;
  confidence : float;
  single_bound : float;
  pair_bound : float;
  pair_bound_conservative : float;
  single_meets : bool;
  pair_meets : bool;
  pair_meets_conservatively : bool;
}

let assess u ~required_bound ~confidence =
  if not (required_bound > 0.0) then
    invalid_arg "Assessment.assess: required bound must be positive";
  if not (0.0 < confidence && confidence < 1.0) then
    invalid_arg "Assessment.assess: confidence must lie strictly in (0, 1)";
  let k = Numerics.Normal_dist.ppf confidence in
  let single_bound = Normal_approx.single_bound u ~k in
  let pair_bound = Normal_approx.pair_bound u ~k in
  let pair_bound_conservative =
    (* What an assessor who only trusts the single-version bound and a pmax
       estimate can claim, by eq. (12). *)
    Bounds.pair_bound_from_bound ~single_bound ~pmax:(Universe.pmax u)
  in
  {
    required_bound;
    confidence;
    single_bound;
    pair_bound;
    pair_bound_conservative;
    single_meets = single_bound <= required_bound;
    pair_meets = pair_bound <= required_bound;
    pair_meets_conservatively = pair_bound_conservative <= required_bound;
  }

let diversity_gain_summary u ~confidence =
  let k = Numerics.Normal_dist.ppf confidence in
  let v = assess u ~required_bound:1.0 ~confidence in
  let mean_gain = Moments.mean_gain u in
  let bound_gain =
    if v.pair_bound > 0.0 then v.single_bound /. v.pair_bound else infinity
  in
  let risk_gain =
    let r = Fault_count.risk_ratio u in
    if r > 0.0 then 1.0 /. r else infinity
  in
  (k, mean_gain, bound_gain, risk_gain)

let required_pmax_for_bound ~single_bound ~required_bound =
  (* Invert eq. (12): find the largest pmax whose guaranteed shrinkage
     sqrt(pmax(1+pmax)) brings the single bound under the requirement.
     Returns None when even pmax -> 0 cannot (required_bound <= 0) or when
     no shrinkage is needed. *)
  if not (single_bound > 0.0) then
    invalid_arg "Assessment.required_pmax_for_bound: single_bound must be positive";
  if Float.is_nan required_bound then
    invalid_arg "Assessment.required_pmax_for_bound: required_bound is NaN";
  if required_bound >= single_bound then Some 1.0
  else
    let target = required_bound /. single_bound in
    (* solve sqrt(p(1+p)) = target: p^2 + p - target^2 = 0. *)
    let t2 = target *. target in
    let p = ((sqrt (1.0 +. (4.0 *. t2))) -. 1.0) /. 2.0 in
    if p <= 0.0 then None else Some (min 1.0 p)

let pp_verdict ppf v =
  Fmt.pf ppf
    "@[<v>requirement: PFD <= %.3g at %.4g confidence@,\
     single version bound: %.3g  -> %s@,\
     pair bound (moments): %.3g  -> %s@,\
     pair bound (eq. 12):  %.3g  -> %s@]"
    v.required_bound v.confidence v.single_bound
    (if v.single_meets then "meets" else "fails")
    v.pair_bound
    (if v.pair_meets then "meets" else "fails")
    v.pair_bound_conservative
    (if v.pair_meets_conservatively then "meets" else "fails")
