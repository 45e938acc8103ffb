open Numerics

let worst_case_region_measure ~q ~epsilon =
  if epsilon < 0.0 then
    invalid_arg "Robustness.worst_case_region_measure: negative epsilon";
  min 1.0 (q +. epsilon)

let worst_case_qs space ~epsilon =
  Array.map
    (fun q -> worst_case_region_measure ~q ~epsilon)
    (Space.region_measures space)

let robust_universe space ~epsilon =
  (* Per-region worst case: each region's measure can rise by at most the
     total-variation budget. Taking all of them at +epsilon simultaneously
     is conservative (a single adversarial profile cannot inflate every
     region at once), which is the right direction for a bound. *)
  Core.Universe.of_arrays
    ~p:
      (Array.init (Space.fault_count space) (fun i ->
           Space.introduction_prob space i))
    ~q:(worst_case_qs space ~epsilon)

let worst_case_mu2 space ~epsilon =
  (* Sharper than [robust_universe]: a total-variation shift of epsilon
     moves at most epsilon of profile mass, and an adversary maximising
     the PAIR's mean PFD pushes it into the regions with the largest
     common-fault probability p_i^2. Greedy allocation over regions,
     bounded by each region's headroom (its complement mass). *)
  if not (epsilon >= 0.0 && epsilon <= 1.0) then
    invalid_arg "Robustness.worst_case_mu2: epsilon outside [0, 1]";
  let qs = Space.region_measures space in
  let n = Space.fault_count space in
  let weights =
    Array.init n (fun i ->
        let p = Space.introduction_prob space i in
        (p *. p, i))
  in
  Array.sort (fun (a, _) (b, _) -> compare b a) weights;
  let base =
    Kahan.sum_over n (fun i ->
        let p = Space.introduction_prob space i in
        p *. p *. qs.(i))
  in
  let budget = ref epsilon in
  let extra = Kahan.create () in
  Array.iter
    (fun (w2, i) ->
      if !budget > 0.0 then begin
        let headroom = 1.0 -. qs.(i) in
        let take = min !budget headroom in
        Kahan.add extra (w2 *. take);
        budget := !budget -. take
      end)
    weights;
  base +. Kahan.total extra

let profile_sensitivity space ~alternatives =
  (* Exact q vectors under explicitly supplied alternative profiles:
     assessors often have a handful of candidate operational profiles
     rather than a distance budget. *)
  List.map
    (fun (label, profile) ->
      if Profile.size profile <> Space.size space then
        invalid_arg "Robustness.profile_sensitivity: profile size mismatch";
      let qs =
        Array.init (Space.fault_count space) (fun i ->
            Region.measure (Space.region space i) profile)
      in
      let u =
        Core.Universe.of_arrays
          ~p:
            (Array.init (Space.fault_count space) (fun i ->
                 Space.introduction_prob space i))
          ~q:qs
      in
      (label, Core.Moments.mu1 u, Core.Moments.mu2 u))
    alternatives

let total_variation a b =
  if Profile.size a <> Profile.size b then
    invalid_arg "Robustness.total_variation: profile size mismatch";
  let pa = Profile.probabilities a and pb = Profile.probabilities b in
  0.5 *. Kahan.sum_over (Array.length pa) (fun i -> abs_float (pa.(i) -. pb.(i)))
