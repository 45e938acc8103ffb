(* Demand-profile drift detection.

   A proven-in-use argument is only as good as the stability of the
   demand profile it was collected under (Schabe & Braband; experiment
   E28 quantifies the PFD's sensitivity to profile error). This module
   compares the empirical demand histogram accumulated from the run log
   (the [demand_hist] field of [runner.run] events) against the profile
   the operating evidence was *declared* to be collected under, with a
   Pearson chi-square goodness-of-fit test and a KL divergence.

   The chi-square expectation is unreliable for bins with tiny expected
   counts, so bins whose expected count falls below [min_expected] are
   pooled into one rest bin (a deterministic function of the declared
   profile and the total count only, so verdicts stay reproducible).
   Demands observed where the declared profile puts zero probability are
   impossible under the declaration; they are counted separately
   ([impossible]) and raise the alarm unconditionally, keeping the
   reported statistics finite. *)

type result = {
  total : int;
  chi_square : float;
  dof : int;
  p_value : float;
  kl_divergence : float;
  impossible : int;
  alarm : bool;
}

let min_expected = 5.0

(* Upper-tail chi-square p-value via the Wilson-Hilferty cube-root
   normal approximation: (X/k)^(1/3) is approximately normal with mean
   1 - 2/(9k) and variance 2/(9k). Accurate to a few percent for k >= 1,
   far inside what an alarm threshold needs. *)
let chi_square_p_value ~dof x =
  if dof < 1 then invalid_arg "Drift.chi_square_p_value: dof must be >= 1";
  if x <= 0.0 then 1.0
  else
    let k = float_of_int dof in
    let v = 2.0 /. (9.0 *. k) in
    let z = (((x /. k) ** (1.0 /. 3.0)) -. (1.0 -. v)) /. sqrt v in
    1.0 -. Numerics.Normal_dist.cdf z

let assess ~expected ~counts ~alpha =
  if not (0.0 < alpha && alpha < 1.0) then
    invalid_arg "Drift.assess: alpha must lie strictly in (0, 1)";
  let n_expected = Array.length expected in
  if n_expected = 0 then invalid_arg "Drift.assess: expected profile is empty";
  Array.iter
    (fun p ->
      if p < 0.0 || not (Float.is_finite p) then
        invalid_arg "Drift.assess: expected probabilities must be finite >= 0")
    expected;
  let total =
    let t = ref 0 in
    Array.iter (fun c -> t := !t + c) counts;
    !t
  in
  (* Demands outside the declared support: either an id past the declared
     space, or an id the declared profile gives zero probability. *)
  let impossible = ref 0 in
  Array.iteri
    (fun id c ->
      if c > 0 && (id >= n_expected || Numerics.Stats.is_zero expected.(id))
      then impossible := !impossible + c)
    counts;
  let possible = total - !impossible in
  if possible = 0 then
    {
      total;
      chi_square = 0.0;
      dof = max 1 (n_expected - 1);
      p_value = 1.0;
      kl_divergence = 0.0;
      impossible = !impossible;
      alarm = !impossible > 0;
    }
  else begin
    let n = float_of_int possible in
    (* Pool small-expectation bins. Bin assignment depends only on the
       declared profile and the total, never on the observed counts, so
       the statistic is a pure function of (expected, counts). *)
    let chi = Numerics.Kahan.create () in
    let kl = Numerics.Kahan.create () in
    let pooled_obs = ref 0 in
    let pooled_exp = Numerics.Kahan.create () in
    let own_bins = ref 0 in
    Array.iteri
      (fun id p ->
        if not (Numerics.Stats.is_zero p) then begin
          let obs =
            if id < Array.length counts then counts.(id) else 0
          in
          (* KL term over the raw (unpooled) support: 0 when unobserved. *)
          if obs > 0 then begin
            let q = float_of_int obs /. n in
            Numerics.Kahan.add kl (q *. log (q /. p))
          end;
          let exp_count = p *. n in
          if exp_count >= min_expected then begin
            incr own_bins;
            let d = float_of_int obs -. exp_count in
            Numerics.Kahan.add chi (d *. d /. exp_count)
          end
          else begin
            pooled_obs := !pooled_obs + obs;
            Numerics.Kahan.add pooled_exp exp_count
          end
        end)
      expected;
    let bins =
      let pooled_mass = Numerics.Kahan.total pooled_exp in
      if Numerics.Stats.is_zero pooled_mass then !own_bins
      else begin
        let d = float_of_int !pooled_obs -. pooled_mass in
        Numerics.Kahan.add chi (d *. d /. pooled_mass);
        !own_bins + 1
      end
    in
    let chi_square = Numerics.Kahan.total chi in
    let dof = max 1 (bins - 1) in
    let p_value =
      if bins < 2 then 1.0 else chi_square_p_value ~dof chi_square
    in
    {
      total;
      chi_square;
      dof;
      p_value;
      kl_divergence = Numerics.Kahan.total kl;
      impossible = !impossible;
      alarm = !impossible > 0 || p_value < alpha;
    }
  end
