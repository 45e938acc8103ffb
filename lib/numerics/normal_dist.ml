let pdf ?(mu = 0.0) ?(sigma = 1.0) x =
  if not (sigma > 0.0) then invalid_arg "Normal_dist.pdf: sigma must be positive";
  let z = (x -. mu) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt (2.0 *. Float.pi))

let cdf ?(mu = 0.0) ?(sigma = 1.0) x =
  if not (sigma > 0.0) then invalid_arg "Normal_dist.cdf: sigma must be positive";
  let z = (x -. mu) /. sigma in
  0.5 *. Special.erfc (-.z /. Special.sqrt2)

let sf ?(mu = 0.0) ?(sigma = 1.0) x =
  if not (sigma > 0.0) then invalid_arg "Normal_dist.sf: sigma must be positive";
  let z = (x -. mu) /. sigma in
  0.5 *. Special.erfc (z /. Special.sqrt2)

(* Acklam's rational approximation to the standard normal quantile,
   |relative error| < 1.15e-9, then one Halley refinement step using our
   high-precision CDF, bringing the result to full double precision. *)
let ppf_raw p =
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let p_high = 1.0 -. p_low in
  if p < p_low then
    let q = sqrt (-2.0 *. log p) in
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  else if p <= p_high then
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
  else
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
       /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))

let ppf ?(mu = 0.0) ?(sigma = 1.0) p =
  if not (sigma > 0.0) then invalid_arg "Normal_dist.ppf: sigma must be positive";
  if not (0.0 < p && p < 1.0) then
    invalid_arg "Normal_dist.ppf: p must lie strictly inside (0, 1)";
  let x = ppf_raw p in
  (* Halley refinement: e = Phi(x) - p, u = e/phi(x),
     x' = x - u / (1 + x u / 2). *)
  let e = cdf x -. p in
  let u = e /. pdf x in
  let z = x -. (u /. (1.0 +. (x *. u /. 2.0))) in
  mu +. (sigma *. z)

let sample rng ?(mu = 0.0) ?(sigma = 1.0) () =
  (* Marsaglia polar method. *)
  let rec loop () =
    let u = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
    let v = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || Stats.is_zero s then loop () else u *. sqrt (-2.0 *. log s /. s)
  in
  mu +. (sigma *. loop ())
