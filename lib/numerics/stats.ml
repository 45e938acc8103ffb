type summary = {
  n : int;
  mean : float;
  variance : float;
  std : float;
  min : float;
  max : float;
}

let approx_eq ?(rel = 1e-9) ?(abs = 1e-12) a b =
  if Float.is_finite a && Float.is_finite b then
    let diff = abs_float (a -. b) in
    diff <= abs || diff <= rel *. Float.max (abs_float a) (abs_float b)
  else
    (* the tolerances are meaningless off the finite line: an infinity
       matches only itself, and NaN matches nothing *)
    a = b

let is_zero ?(eps = Float.min_float) x = abs_float x <= eps

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mean: empty array";
  Kahan.sum_array a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.variance: need at least two observations";
  let m = mean a in
  let ss = Kahan.sum_over n (fun i -> (a.(i) -. m) ** 2.0) in
  ss /. float_of_int (n - 1)

let std a = sqrt (variance a)

let summarize a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: empty array";
  let mn = Array.fold_left min a.(0) a in
  let mx = Array.fold_left max a.(0) a in
  let m = mean a in
  let v = if n >= 2 then variance a else 0.0 in
  { n; mean = m; variance = v; std = sqrt v; min = mn; max = mx }

let covariance a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Stats.covariance: length mismatch";
  if n < 2 then invalid_arg "Stats.covariance: need at least two observations";
  let ma = mean a and mb = mean b in
  Kahan.sum_over n (fun i -> (a.(i) -. ma) *. (b.(i) -. mb)) /. float_of_int (n - 1)

let correlation a b =
  let c = covariance a b in
  let sa = std a and sb = std b in
  if is_zero sa || is_zero sb then 0.0 else c /. (sa *. sb)

let quantile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile_sorted: empty array";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Stats.quantile_sorted: p outside [0, 1]";
  (* Type-7 (linear interpolation) quantile, the R/NumPy default. *)
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor h) in
  let hi = if lo + 1 < n then lo + 1 else lo in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let quantile a p =
  let sorted = Array.copy a in
  Array.sort compare sorted;
  quantile_sorted sorted p

let median a = quantile a 0.5

let empirical_cdf a =
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = float_of_int (Array.length sorted) in
  fun x ->
    (* number of elements <= x, by binary search for the upper bound *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if sorted.(mid) <= x then search (mid + 1) hi else search lo mid
    in
    float_of_int (search 0 (Array.length sorted)) /. n

let proportion_ci ?(z = 1.959963984540054) ~successes ~trials () =
  if trials <= 0 then invalid_arg "Stats.proportion_ci: trials must be positive";
  (* Wilson score interval: behaves correctly for proportions near 0, which
     is exactly where PFD estimates live. *)
  let n = float_of_int trials in
  let p_hat = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let centre = (p_hat +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p_hat *. (1.0 -. p_hat) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (max 0.0 (centre -. half), min 1.0 (centre +. half))
