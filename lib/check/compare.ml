open Numerics

type verdict = {
  pass : bool;
  comparator : string;
  detail : string;
  analytic : float;
  simulated : float;
}

(* The z of every statistical comparator. Two-sided normal tail
   beyond 6 sigma is ~2e-9, so even a full `make check` sweep (hundreds
   of scenarios, tens of statistical verdicts each) has a negligible
   probability of a false alarm under a *fresh* PROP_SEED — and for any
   fixed seed the verdicts are deterministic, so the suites can never
   flake from run to run. The width costs little detection power against
   real formula corruption: a broken analytic term shifts its estimate
   by many tens of standard errors at the replication counts the
   scenarios use (see the mutation smoke in EXPERIMENTS.md). *)
let z = 6.0

(* Every verdict carries the pair its comparator tested, so an oracle
   outcome built from a verdict cannot record different values from the
   ones that were compared. *)
let verdict ~analytic ~simulated (pass, comparator, detail) =
  { pass; comparator; detail; analytic; simulated }

let nan_guard which v =
  (false, "nan-guard", Printf.sprintf "%s value is not finite: %h" which v)

let guarded ~analytic ~simulated k =
  verdict ~analytic ~simulated
    (if Float.is_nan analytic then nan_guard "analytic" analytic
     else if Float.is_nan simulated then nan_guard "simulated" simulated
     else k ())

let exact_bits a b =
  guarded ~analytic:a ~simulated:b (fun () ->
      ( Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b),
        "exact-bits",
        Printf.sprintf "%h vs %h" a b ))

let same_bytes expected actual =
  exact_bits 1.0 (if String.equal expected actual then 1.0 else 0.0)

let approx ?(rel = 1e-9) ?(abs = 1e-12) a b =
  guarded ~analytic:a ~simulated:b (fun () ->
      ( Stats.approx_eq ~rel ~abs a b,
        Printf.sprintf "approx(rel=%.1e,abs=%.1e)" rel abs,
        Printf.sprintf "%.12g vs %.12g (delta %.3e)" a b (a -. b) ))

let lower_bound bound v =
  guarded ~analytic:bound ~simulated:v (fun () ->
      (* the same ulp slack the interval comparators give an endpoint *)
      (v >= bound -. 1e-12, "lower-bound", Printf.sprintf "%.6g >= %g" v bound))

let wilson ~expected ~successes ~trials () =
  if trials <= 0 then invalid_arg "Compare.wilson: trials must be positive";
  if successes < 0 || successes > trials then
    invalid_arg "Compare.wilson: successes out of range";
  let n = float_of_int trials in
  let observed = float_of_int successes /. n in
  guarded ~analytic:expected ~simulated:observed (fun () ->
      let lo, hi = Stats.proportion_ci ~z ~successes ~trials () in
      (* ulp slack so an expected value sitting exactly on an interval
         endpoint is never rejected for rounding reasons *)
      let eps = 1e-12 in
      (* Wilson's z-sigma coverage is a CLT statement and collapses when
         the expected proportion is within ~1/n of 0 or 1 (a single
         stray event then jumps the estimate outside the interval). The
         Bernstein test below is exact at any n: under the null the
         per-trial variance is the known expected*(1-expected), and
         P(|observed - expected| > z*sqrt(var/n) + z^2/(3n)) <=
         2*exp(-z^2/2) for bounded observations. Either acceptance
         keeps the verdict a finite-sample guarantee. *)
      let bernstein =
        (z *. sqrt (expected *. (1.0 -. expected) /. n)) +. (z *. z /. (3.0 *. n))
      in
      ( (expected >= lo -. eps && expected <= hi +. eps)
        || abs_float (observed -. expected) <= bernstein,
        Printf.sprintf "wilson+bernstein(z=%g)" z,
        Printf.sprintf
          "expected %.6g, observed %d/%d, wilson [%.6g, %.6g], bernstein \
           half-width %.3e"
          expected successes trials lo hi bernstein ))

let mean_z ?(bound = 0.0) ~expected ~sigma ~trials ~mean () =
  if trials <= 0 then invalid_arg "Compare.mean_z: trials must be positive";
  if sigma < 0.0 then invalid_arg "Compare.mean_z: sigma must be >= 0";
  if bound < 0.0 then invalid_arg "Compare.mean_z: bound must be >= 0";
  if Stats.is_zero sigma && Stats.is_zero bound then
    (* a zero-variance quantity admits no sampling error: degrade to
       the floating-point comparator *)
    approx expected mean
  else
    guarded ~analytic:expected ~simulated:mean (fun () ->
        let n = float_of_int trials in
        (* z * standard error, plus a Bernstein term for bounded
           observations: with |X| <= bound, the tolerance
           z*sigma/sqrt(n) + z^2*bound/(3n) dominates the exact solution
           of the Bernstein tail inequality at confidence
           2*exp(-z^2/2), so the verdict is a finite-sample guarantee
           rather than a CLT approximation — essential because PFD
           samples are rare-event mixtures (mostly zero, occasionally
           ~q_i) for which a pure z-test at modest replication counts
           is unreliable in the far tail. *)
        let half =
          (z *. sigma /. sqrt n) +. (z *. z *. bound /. (3.0 *. n))
        in
        ( abs_float (mean -. expected) <= half,
          (if bound > 0.0 then Printf.sprintf "z-bernstein(z=%g)" z
           else Printf.sprintf "z-test(z=%g)" z),
          Printf.sprintf
            "expected %.6g, sample mean %.6g over %d, |delta| %.3e vs %.3e \
             allowed"
            expected mean trials
            (abs_float (mean -. expected))
            half ))

let ratio_wilson ~expected ~num ~den ~trials () =
  if trials <= 0 then
    invalid_arg "Compare.ratio_wilson: trials must be positive";
  if num < 0 || num > trials || den < 0 || den > trials then
    invalid_arg "Compare.ratio_wilson: counts out of range";
  let observed =
    if den = 0 then nan else float_of_int num /. float_of_int den
  in
  let comparator = Printf.sprintf "ratio-wilson(z=%g)" z in
  (* an empty denominator makes [observed] NaN legitimately (the
     inconclusive branch below), so only the analytic side is guarded *)
  verdict ~analytic:expected ~simulated:observed
    (if Float.is_nan expected then nan_guard "analytic" expected
     else
       (* widen each component interval by the Bernstein z^2/(3n) term so
          the containment stays a finite-sample statement when either
          proportion sits within ~1/n of 0 or 1 (see {!wilson}) *)
       let slack = z *. z /. (3.0 *. float_of_int trials) in
       let widen (lo, hi) =
         (Float.max 0.0 (lo -. slack), Float.min 1.0 (hi +. slack))
       in
       let n_lo, n_hi = widen (Stats.proportion_ci ~z ~successes:num ~trials ()) in
       let d_lo, d_hi = widen (Stats.proportion_ci ~z ~successes:den ~trials ()) in
       if Stats.is_zero d_lo || d_lo < 0.0 then
         (* the denominator interval touches zero: the sample cannot bound
            the ratio, so the check is inconclusive rather than failed *)
         ( true,
           comparator,
           Printf.sprintf
             "inconclusive: denominator interval [%.3g, %.3g] touches 0 \
              (%d/%d events)"
             d_lo d_hi den trials )
       else
         let lo = n_lo /. d_hi and hi = n_hi /. d_lo in
         let eps = 1e-12 in
         ( expected >= lo -. eps && expected <= hi +. eps,
           comparator,
           Printf.sprintf
             "expected %.6g, observed %.6g (%d/%d of %d), interval [%.6g, \
              %.6g]"
             expected observed num den trials lo hi ))

let pp ppf v =
  Fmt.pf ppf "%s %s: %s"
    (if v.pass then "ok" else "FAIL")
    v.comparator v.detail
