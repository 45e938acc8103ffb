let sqrt_pi = 1.7724538509055160273
let sqrt2 = 1.4142135623730950488

(* erf by Maclaurin series; alternating-sign stable form via the
   confluent-hypergeometric rearrangement erf(x) = 2x e^{-x^2}/sqrt(pi)
   * sum_{n>=0} (2x^2)^n / (1*3*...*(2n+1)), all terms positive. *)
let erf_series x =
  let x2 = x *. x in
  let rec loop n term acc =
    if term < 1e-18 *. acc || n > 300 then acc
    else
      let term' = term *. 2.0 *. x2 /. float_of_int (2 * n + 3) in
      loop (n + 1) term' (acc +. term')
  in
  let total = loop 0 1.0 1.0 in
  2.0 *. x *. exp (-.x2) /. sqrt_pi *. total

(* erfc by Lentz's continued fraction, accurate for x >= 1:
   erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...)))) *)
let erfc_cf x =
  let tiny = 1e-300 in
  let b0 = x in
  let f = ref (if abs_float b0 < tiny then tiny else b0) in
  let c = ref !f in
  let d = ref 0.0 in
  let continue_ = ref true in
  let m = ref 1 in
  while !continue_ && !m < 300 do
    let a = float_of_int !m /. 2.0 in
    (* every partial denominator is x *)
    d := x +. (a *. !d);
    if abs_float !d < tiny then d := tiny;
    c := x +. (a /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !c *. !d in
    f := !f *. delta;
    if abs_float (delta -. 1.0) < 1e-17 then continue_ := false;
    incr m
  done;
  exp (-.x *. x) /. sqrt_pi /. !f

let erf x =
  if x <> x then nan
  else if x < 0.0 then
    -.(if -.x < 1.5 then erf_series (-.x) else 1.0 -. erfc_cf (-.x))
  else if x < 1.5 then erf_series x
  else if x > 6.5 then 1.0
  else 1.0 -. erfc_cf x

let erfc x =
  if x <> x then nan
  else if x < 0.0 then
    2.0 -. (if -.x < 1.5 then 1.0 -. erf_series (-.x) else erfc_cf (-.x))
  else if x < 1.5 then 1.0 -. erf_series x
  else if x > 27.5 then 0.0 (* erfc(27.5) < 1e-300: underflow *)
  else erfc_cf x

let log_gamma_coeffs =
  [|
    676.5203681218851; -1259.1392167224028; 771.32342877765313;
    -176.61502916214059; 12.507343278686905; -0.13857109526572012;
    9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

(* Lanczos approximation, g = 7, n = 9. *)
let rec log_gamma x =
  if x <> x then nan
  else if x <= 0.0 && Float.is_integer x then infinity
  else if x < 0.5 then
    (* reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x) *)
    log (Float.pi /. abs_float (sin (Float.pi *. x))) -. log_gamma (1.0 -. x)
  else
    let x = x -. 1.0 in
    let acc = ref 0.99999999999980993 in
    Array.iteri
      (fun i c -> acc := !acc +. (c /. (x +. float_of_int (i + 1))))
      log_gamma_coeffs;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc

(* log n! for n < 256, built once at module initialisation and only read
   afterwards, so concurrent callers on several domains share it safely. *)
let log_factorial_table =
  Array.init 256 (fun n -> log_gamma (float_of_int (n + 1)))

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative argument"
  else if n < 256 then log_factorial_table.(n)
  else log_gamma (float_of_int (n + 1))

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

let logsumexp a =
  let m = Array.fold_left max neg_infinity a in
  if m = neg_infinity then neg_infinity
  else m +. log (Kahan.sum_over (Array.length a) (fun i -> exp (a.(i) -. m)))
