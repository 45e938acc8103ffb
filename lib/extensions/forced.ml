open Numerics

type t = { qs : float array; pa : float array; pb : float array }

let create ~qs ~pa ~pb =
  let n = Array.length qs in
  if n = 0 then invalid_arg "Forced.create: empty universe";
  if Array.length pa <> n || Array.length pb <> n then
    invalid_arg "Forced.create: vector length mismatch";
  let check name v =
    Array.iter
      (fun x ->
        if Float.is_nan x || x < 0.0 || x > 1.0 then
          invalid_arg ("Forced.create: " ^ name ^ " outside [0, 1]"))
      v
  in
  check "qs" qs;
  check "pa" pa;
  check "pb" pb;
  { qs = Array.copy qs; pa = Array.copy pa; pb = Array.copy pb }

let of_universe u =
  let p = Core.Universe.ps u in
  create ~qs:(Core.Universe.qs u) ~pa:p ~pb:p

let size t = Array.length t.qs

let channel_a t = Core.Universe.of_arrays ~p:t.pa ~q:t.qs

let mu_a t = Kahan.sum_over (size t) (fun i -> t.pa.(i) *. t.qs.(i))
let mu_b t = Kahan.sum_over (size t) (fun i -> t.pb.(i) *. t.qs.(i))

let mu_pair t =
  Kahan.sum_over (size t) (fun i -> t.pa.(i) *. t.pb.(i) *. t.qs.(i))

let var_pair t =
  Kahan.sum_over (size t) (fun i ->
      let pc = t.pa.(i) *. t.pb.(i) in
      pc *. (1.0 -. pc) *. t.qs.(i) *. t.qs.(i))

let p_no_common_fault t =
  exp
    (Kahan.sum_over (size t) (fun i ->
         Float.log1p (-.(t.pa.(i) *. t.pb.(i)))))

let risk_ratio_vs_a t =
  (* P(pair shares a fault) / P(channel-A version has a fault). *)
  let denom = Core.Fault_count.prob_some t.pa in
  if Stats.is_zero denom then nan
  else
    Core.Fault_count.prob_some (Array.init (size t) (fun i -> t.pa.(i) *. t.pb.(i)))
    /. denom

let divergence_gain t =
  (* Gain of the forced pair over the non-forced pair built from channel A
     alone: ratio of mean pair PFDs. Values > 1 mean forcing helped. *)
  let non_forced = Core.Moments.mu2 (channel_a t) in
  let forced = mu_pair t in
  if Stats.is_zero forced then infinity else non_forced /. forced

let complementary rng u ~strength =
  (* Channel B's process is derived from A's by redistributing weakness:
     with the given strength in [0, 1], each fault's pb is a convex mix of
     pa and a random permutation of pa — at strength 1 the two processes
     have the same distribution of fault probabilities but assign them to
     different faults, the idealised forced diversity. *)
  if not (strength >= 0.0 && strength <= 1.0) then
    invalid_arg "Forced.complementary: strength outside [0, 1]";
  let pa = Core.Universe.ps u in
  let permuted = Array.copy pa in
  Rng.shuffle_in_place rng permuted;
  let pb =
    Array.init (Array.length pa) (fun i ->
        ((1.0 -. strength) *. pa.(i)) +. (strength *. permuted.(i)))
  in
  create ~qs:(Core.Universe.qs u) ~pa ~pb
