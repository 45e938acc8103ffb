(* Reference evaluators and agreement helpers shared by the registry
   oracles and the property suite (test/test_prop.ml), so both harnesses
   judge a rewrite against the same reference. *)

open Simulator

(* The seed's adjudicator, reimplemented verbatim (polymorphic equality,
   double traversal and all) as the reference the calculus must
   bit-match on its legacy domain. *)
let legacy_combine ~required outputs =
  let shutdowns =
    List.length (List.filter (fun o -> o = Channel.Shutdown) outputs)
  in
  if shutdowns >= required then Channel.Shutdown else Channel.No_action

(* Independent evaluator of the graceful-degradation scenario — a 2-of-3
   vote falling back to an OR when abstentions break the quorum —
   written directly over the output list, with no reference to the
   counts algebra. *)
let reference_cascade outs =
  let count p = List.length (List.filter p outs) in
  let shut = count (fun o -> Channel.equal o Channel.Shutdown) in
  let active = count (fun o -> not (Channel.equal o Channel.Abstain)) in
  if shut >= 2 then Channel.Shutdown
  else if active >= 2 then Channel.No_action
  else if shut >= 1 then Channel.Shutdown
  else if active >= 1 then Channel.No_action
  else Channel.Abstain

let shuffle rng l =
  let a = Array.of_list l in
  Numerics.Rng.shuffle_in_place rng a;
  Array.to_list a

(* Tolerance for the incremental-vs-naive gradient agreement: the two
   paths evaluate the same closed form but associate the compensated
   log-sums differently (per-index Kahan sums vs shared prefix/suffix
   arrays), so coordinates agree to rounding, not bitwise. The bound
   1e-9 * (1 + ||grad_naive||_inf) is ~7 orders of magnitude above the
   worst drift ever observed (~1e-14 relative) while still catching any
   real formula divergence — see EXPERIMENTS.md "ulp-tolerance
   policy". *)
let gradient_tol naive =
  let inf_norm =
    Array.fold_left
      (fun acc d -> if Float.is_nan d then acc else Float.max acc (Float.abs d))
      0.0 naive
  in
  1e-9 *. (1.0 +. inf_norm)

let gradient_gap fast naive =
  let gap = ref 0.0 in
  Array.iteri
    (fun i f ->
      (* both NaN (the all-zero universe, where the ratio is 0/0) is
         agreement; NaN on one side only is divergence *)
      let d =
        if Float.is_nan f && Float.is_nan naive.(i) then 0.0
        else Float.abs (f -. naive.(i))
      in
      gap := Float.max !gap d)
    fast;
  !gap
