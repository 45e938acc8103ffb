let exponential rng ~rate =
  if not (rate > 0.0) then invalid_arg "Sampler.exponential: rate must be positive";
  -.log (1.0 -. Rng.float rng) /. rate

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Sampler.binomial: negative n";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Sampler.binomial: p outside [0, 1]";
  (* Direct Bernoulli summation: n is small everywhere we use this. *)
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng ~p then incr count
  done;
  !count

let rec gamma rng ~shape =
  if not (shape > 0.0) then invalid_arg "Sampler.gamma: shape must be positive";
  if shape < 1.0 then
    (* Boost to shape+1 then correct (Marsaglia–Tsang trick). *)
    let g = gamma rng ~shape:(shape +. 1.0) in
    let u = 1.0 -. Rng.float rng in
    g *. (u ** (1.0 /. shape))
  else begin
    (* Marsaglia–Tsang squeeze method. *)
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec loop () =
      let x = Normal_dist.sample rng () in
      let v = (1.0 +. (c *. x)) ** 3.0 in
      if v <= 0.0 then loop ()
      else
        let u = 1.0 -. Rng.float rng in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v +. log v)) then d *. v
        else loop ()
    in
    loop ()
  end

let beta rng ~a ~b =
  if not (a > 0.0 && b > 0.0) then
    invalid_arg "Sampler.beta: shapes must be positive";
  let x = gamma rng ~shape:a in
  let y = gamma rng ~shape:b in
  x /. (x +. y)

let dirichlet rng ~alphas =
  if Array.length alphas = 0 then invalid_arg "Sampler.dirichlet: empty alphas";
  let draws = Array.map (fun a -> gamma rng ~shape:a) alphas in
  let total = Kahan.sum_array draws in
  Array.map (fun d -> d /. total) draws

let power_law rng ~exponent ~lo ~hi =
  if not (0.0 < lo && lo < hi) then
    invalid_arg "Sampler.power_law: need 0 < lo < hi";
  let u = Rng.float rng in
  if abs_float (exponent +. 1.0) < 1e-12 then
    (* exponent = -1: log-uniform *)
    lo *. exp (u *. log (hi /. lo))
  else
    let e = exponent +. 1.0 in
    (((hi ** e) -. (lo ** e)) *. u +. (lo ** e)) ** (1.0 /. e)

let poisson rng ~lambda =
  if not (lambda >= 0.0 && lambda < infinity) then
    invalid_arg "Sampler.poisson: rate must be finite and non-negative";
  if lambda < 30.0 then begin
    (* Knuth's product method. *)
    let threshold = exp (-.lambda) in
    let rec loop k prod =
      let prod = prod *. Rng.float rng in
      if prod <= threshold then k else loop (k + 1) prod
    in
    loop 0 1.0
  end
  else
    (* Split to keep the product method in floating-point range. *)
    let half = lambda /. 2.0 in
    let rec sample l = if l < 30.0 then knuth l else knuth half + sample (l -. half)
    and knuth l =
      let threshold = exp (-.l) in
      let rec loop k prod =
        let prod = prod *. Rng.float rng in
        if prod <= threshold then k else loop (k + 1) prod
      in
      loop 0 1.0
    in
    sample lambda

let truncated rng ~lo ~hi draw =
  if not (lo <= hi) then invalid_arg "Sampler.truncated: need lo <= hi";
  let rec loop attempts =
    if attempts > 100_000 then
      invalid_arg "Sampler.truncated: acceptance region too small"
    else
      let x = draw rng in
      if x >= lo && x <= hi then x else loop (attempts + 1)
  in
  loop 0
