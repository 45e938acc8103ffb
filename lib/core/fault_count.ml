open Numerics

let log_prob_none ps =
  Kahan.sum_over (Array.length ps) (fun i -> Float.log1p (-.ps.(i)))

let prob_none ps = exp (log_prob_none ps)

let prob_some ps =
  (* 1 - prod(1 - p_i), computed without cancellation when all p_i are
     tiny: -expm1(sum log1p(-p_i)). *)
  -.Float.expm1 (log_prob_none ps)

let p_n1_zero u = prob_none (Universe.ps u)
let p_n1_pos u = prob_some (Universe.ps u)

let squared ps = Array.map (fun p -> p *. p) ps

let p_n2_zero u = prob_none (squared (Universe.ps u))
let p_n2_pos u = prob_some (squared (Universe.ps u))

let powered ps ~channels =
  Array.map (fun p -> p ** float_of_int channels) ps

let p_nk_pos u ~channels =
  if channels < 1 then invalid_arg "Fault_count.p_nk_pos: channels < 1";
  prob_some (powered (Universe.ps u) ~channels)

let risk_ratio u =
  let denom = p_n1_pos u in
  if Stats.is_zero denom then nan else p_n2_pos u /. denom

let risk_ratio_of_ps ps =
  let denom = prob_some ps in
  if Stats.is_zero denom then nan else prob_some (squared ps) /. denom

let success_ratio u =
  (* Footnote 5: P(N2=0)/P(N1=0) = prod (1+p_i) >= 1. *)
  exp
    (Kahan.sum_over (Universe.size u) (fun i ->
         Float.log1p (Fault.p (Universe.fault u i))))

(* Poisson-binomial distribution by the standard dynamic programme:
   after processing fault i, dist.(k) = P(exactly k of the first i faults
   are present). *)
let poisson_binomial ps =
  let n = Array.length ps in
  let dist = Array.make (n + 1) 0.0 in
  dist.(0) <- 1.0;
  for i = 0 to n - 1 do
    let p = ps.(i) in
    for k = min (i + 1) n downto 1 do
      dist.(k) <- (dist.(k) *. (1.0 -. p)) +. (dist.(k - 1) *. p)
    done;
    dist.(0) <- dist.(0) *. (1.0 -. p)
  done;
  dist

let n1_distribution u = poisson_binomial (Universe.ps u)
let n2_distribution u = poisson_binomial (squared (Universe.ps u))

let mean_of_distribution dist =
  Kahan.sum_over (Array.length dist) (fun k -> float_of_int k *. dist.(k))

let variance_of_distribution dist =
  let m = mean_of_distribution dist in
  Kahan.sum_over (Array.length dist) (fun k ->
      let d = float_of_int k -. m in
      d *. d *. dist.(k))
