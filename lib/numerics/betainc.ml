let log_beta a b = Special.log_gamma a +. Special.log_gamma b -. Special.log_gamma (a +. b)

(* Continued fraction for the incomplete beta function (Lentz's method,
   Numerical Recipes' betacf). *)
let betacf a b x =
  let tiny = 1e-300 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if abs_float !d < tiny then d := tiny;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue_ = ref true in
  while !continue_ && !m <= 300 do
    let mf = float_of_int !m in
    let m2 = 2.0 *. mf in
    (* even step *)
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    (* odd step *)
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if abs_float (delta -. 1.0) < 1e-15 then continue_ := false;
    incr m
  done;
  !h

let regularized ~a ~b x =
  if not (a > 0.0 && b > 0.0) then
    invalid_arg "Betainc.regularized: shapes must be positive";
  if Float.is_nan x || x < 0.0 || x > 1.0 then
    invalid_arg "Betainc.regularized: x outside [0, 1]";
  if x = 0.0 then 0.0 (* divlint: allow float-eq *)
  else if x = 1.0 then 1.0 (* divlint: allow float-eq *)
  else
    let front =
      exp
        ((a *. log x) +. (b *. Float.log1p (-.x)) -. log_beta a b)
    in
    (* use the symmetry relation to keep the continued fraction in its
       rapidly convergent region *)
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. betacf a b x /. a
    else 1.0 -. (front *. betacf b a (1.0 -. x) /. b)

let beta_cdf ~a ~b x = regularized ~a ~b (max 0.0 (min 1.0 x))

let beta_ppf ~a ~b p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Betainc.beta_ppf: p outside [0, 1]";
  if p = 0.0 then 0.0 (* divlint: allow float-eq *)
  else if p = 1.0 then 1.0 (* divlint: allow float-eq *)
  else Rootfind.bisect ~tol:1e-14 (fun x -> regularized ~a ~b x -. p) ~lo:0.0 ~hi:1.0

let beta_mean ~a ~b = a /. (a +. b)

let binomial_cdf ~n ~p k =
  if n < 0 then invalid_arg "Betainc.binomial_cdf: negative n";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Betainc.binomial_cdf: p outside [0, 1]";
  if k < 0 then 0.0
  else if k >= n then 1.0
  else if p = 0.0 then 1.0 (* divlint: allow float-eq *)
  else if p = 1.0 then 0.0 (* divlint: allow float-eq *)
  else
    (* P(X <= k) = I_{1-p}(n-k, k+1) *)
    regularized ~a:(float_of_int (n - k)) ~b:(float_of_int (k + 1)) (1.0 -. p)

let binomial_sf ~n ~p k = 1.0 -. binomial_cdf ~n ~p k

let binomial_tail_direct ~n ~p k =
  (* sum_{j >= k} C(n,j) p^j (1-p)^(n-j), in log space; the test oracle for
     binomial_sf and the evaluator used for small n in the voting model. *)
  if k <= 0 then 1.0
  else if k > n then 0.0
  else if p = 0.0 then 0.0 (* divlint: allow float-eq *)
  else if p = 1.0 then 1.0 (* divlint: allow float-eq *)
  else
    Kahan.sum_over
      (n - k + 1)
      (fun i ->
        let j = k + i in
        exp
          (Special.log_choose n j
          +. (float_of_int j *. log p)
          +. (float_of_int (n - j) *. Float.log1p (-.p))))
