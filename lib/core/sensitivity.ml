open Numerics

let prod_except_one ps i =
  Kahan.sum_over (Array.length ps) (fun j ->
      if j = i then 0.0 else Float.log1p (-.ps.(j)))
  |> exp

let prod_except_squared ps i =
  Kahan.sum_over (Array.length ps) (fun j ->
      if j = i then 0.0 else Float.log1p (-.(ps.(j) *. ps.(j))))
  |> exp

let risk_ratio_partial ps i =
  let s1 = Fault_count.prob_some ps in
  if Stats.is_zero s1 then nan
  else
    let s2 = Fault_count.prob_some (Array.map (fun p -> p *. p) ps) in
    let ds1 = prod_except_one ps i in
    let ds2 = 2.0 *. ps.(i) *. prod_except_squared ps i in
    ((ds2 *. s1) -. (s2 *. ds1)) /. (s1 *. s1)

(* Incremental formulation of the full gradient. A single pass builds
   compensated prefix/suffix sums of log1p(-p_j) and log1p(-p_j^2);
   prod_except_one ps i is then exp(pre.(i) + suf.(i + 1)) and each
   partial costs O(1), so the whole gradient is O(n) instead of the
   naive O(n^2).

   Prefix + suffix — not the global product divided by one factor — so a
   coordinate with p_i = 1 stays exact: its own -infinity log term is
   excluded from the sums for index i rather than divided back out as a
   0/0. Kahan accumulators propagate an interior -infinity cleanly (the
   compensation is dropped on a non-finite sum), so other coordinates
   correctly see exp(-inf) = 0, exactly as the naive sum-over-j path
   does. The two prob_some terms are loop invariants, computed once.

   Summation order differs from the naive per-index Kahan sums, so
   results agree only to rounding; the incremental-vs-naive differential
   oracle and property suite pin the agreement (see EXPERIMENTS.md for
   the tolerance policy). *)
let incremental_partials ps =
  let n = Array.length ps in
  let s1 = Fault_count.prob_some ps in
  if Stats.is_zero s1 then fun _ -> nan
  else begin
    let pre1 = Array.make (n + 1) 0.0 and pre2 = Array.make (n + 1) 0.0 in
    let suf1 = Array.make (n + 1) 0.0 and suf2 = Array.make (n + 1) 0.0 in
    let a1 = Kahan.create () and a2 = Kahan.create () in
    for i = 0 to n - 1 do
      Kahan.add a1 (Float.log1p (-.ps.(i)));
      Kahan.add a2 (Float.log1p (-.(ps.(i) *. ps.(i))));
      pre1.(i + 1) <- Kahan.total a1;
      pre2.(i + 1) <- Kahan.total a2
    done;
    Kahan.reset a1;
    Kahan.reset a2;
    for i = n - 1 downto 0 do
      Kahan.add a1 (Float.log1p (-.ps.(i)));
      Kahan.add a2 (Float.log1p (-.(ps.(i) *. ps.(i))));
      suf1.(i) <- Kahan.total a1;
      suf2.(i) <- Kahan.total a2
    done;
    let s2 = Fault_count.prob_some (Array.map (fun p -> p *. p) ps) in
    fun i ->
      let ds1 = exp (pre1.(i) +. suf1.(i + 1)) in
      let ds2 = 2.0 *. ps.(i) *. exp (pre2.(i) +. suf2.(i + 1)) in
      ((ds2 *. s1) -. (s2 *. ds1)) /. (s1 *. s1)
  end

let risk_ratio_gradient ps =
  let partial = incremental_partials ps in
  Array.init (Array.length ps) partial

let risk_ratio_k_derivative ~b ~k =
  (* Chain rule for p_i = k b_i: dR/dk = sum_i b_i dR/dp_i. Appendix B
     proves this is non-negative for 0 <= k b_i <= 1. O(n) via the same
     prefix/suffix machinery as the gradient. *)
  let ps = Array.map (fun bi -> k *. bi) b in
  let partial = incremental_partials ps in
  Kahan.sum_over (Array.length b) (fun i -> b.(i) *. partial i)

let stationary_p1 ~p2 =
  if not (0.0 < p2 && p2 < 1.0) then
    invalid_arg "Sensitivity.stationary_p1: p2 must lie strictly in (0, 1)";
  (* For n = 2 the ratio is R(p1) = (p1^2 + p2^2 - p1^2 p2^2) /
     (p1 + p2 - p1 p2); setting dR/dp1 = 0 gives the quadratic
     (1 - p2^2) p1^2 + 2 p2 (1 + p2) p1 - p2^2 = 0, whose positive root is
     below.  (Derived independently; EXPERIMENTS.md records how this
     compares with the root printed in the paper's Appendix A.) *)
  p2 *. (sqrt (2.0 /. (1.0 +. p2)) -. 1.0) /. (1.0 -. p2)

let risk_ratio_two ~p1 ~p2 =
  ((p1 *. p1) +. (p2 *. p2) -. (p1 *. p1 *. p2 *. p2))
  /. (p1 +. p2 -. (p1 *. p2))

let stationary_point ps i ~lo ~hi =
  let f x =
    let ps' = Array.copy ps in
    ps'.(i) <- x;
    risk_ratio_partial ps' i
  in
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then Some lo (* divlint: allow float-eq *)
  else if fhi = 0.0 then Some hi (* divlint: allow float-eq *)
  else if flo *. fhi > 0.0 then None
  else Some (Rootfind.brent f ~lo ~hi)

type improvement_effect = Increases_gain | Decreases_gain | Neutral

let classify_single_improvement ps i =
  (* Decreasing p_i moves the ratio by -dR/dp_i: a positive derivative
     means improvement (decrease of p_i) lowers the ratio and so increases
     the gain from diversity. *)
  let d = risk_ratio_partial ps i in
  if Float.is_nan d || abs_float d < 1e-14 then Neutral
  else if d > 0.0 then Increases_gain
  else Decreases_gain
