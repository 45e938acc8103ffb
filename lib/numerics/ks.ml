let statistic samples cdf =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Ks.statistic: empty sample";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let d = ref 0.0 in
  for i = 0 to n - 1 do
    let f = cdf sorted.(i) in
    let lo = float_of_int i /. float_of_int n in
    let hi = float_of_int (i + 1) /. float_of_int n in
    d := max !d (max (abs_float (f -. lo)) (abs_float (hi -. f)))
  done;
  !d

(* Kolmogorov survival function Q(lambda) = 2 sum_{j>=1} (-1)^{j-1}
   exp(-2 j^2 lambda^2); converges very fast for lambda > 0.2. *)
let kolmogorov_q lambda =
  if lambda <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 in
    let j = ref 1 in
    let continue_ = ref true in
    while !continue_ && !j <= 100 do
      let fj = float_of_int !j in
      let term = exp (-2.0 *. fj *. fj *. lambda *. lambda) in
      let signed = if !j mod 2 = 1 then term else -.term in
      acc := !acc +. signed;
      if term < 1e-12 then continue_ := false;
      incr j
    done;
    min 1.0 (max 0.0 (2.0 *. !acc))
  end

let p_value samples cdf =
  let n = float_of_int (Array.length samples) in
  let d = statistic samples cdf in
  (* Stephens' small-sample correction. *)
  let lambda = (sqrt n +. 0.12 +. (0.11 /. sqrt n)) *. d in
  kolmogorov_q lambda

let distance_between_cdfs cdf1 cdf2 ~lo ~hi =
  if not (lo < hi) then invalid_arg "Ks.distance_between_cdfs: need lo < hi";
  let points = 2048 in
  let d = ref 0.0 in
  for i = 0 to points do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int points) in
    d := max !d (abs_float (cdf1 x -. cdf2 x))
  done;
  !d
