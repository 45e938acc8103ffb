type t = { faults : Fault.t array }

let of_faults faults =
  if Array.length faults = 0 then invalid_arg "Universe.of_faults: empty universe";
  { faults = Array.copy faults }

let of_arrays ~p ~q =
  let n = Array.length p in
  if n <> Array.length q then invalid_arg "Universe.of_arrays: length mismatch";
  if n = 0 then invalid_arg "Universe.of_arrays: empty universe";
  { faults = Array.init n (fun i -> Fault.make ~p:p.(i) ~q:q.(i)) }

let of_pairs pairs =
  of_faults (Array.of_list (List.map (fun (p, q) -> Fault.make ~p ~q) pairs))

let size t = Array.length t.faults
let fault t i = t.faults.(i)
let faults t = Array.copy t.faults
let ps t = Array.map Fault.p t.faults
let qs t = Array.map Fault.q t.faults

let pmax t =
  Array.fold_left (fun acc f -> max acc (Fault.p f)) 0.0 t.faults

let qmax t =
  Array.fold_left (fun acc f -> max acc (Fault.q f)) 0.0 t.faults

let total_q t = Numerics.Kahan.sum_over (size t) (fun i -> Fault.q t.faults.(i))

let validate_disjoint t =
  (* Non-overlapping failure regions require the total region measure to be
     a probability (Section 6.2 concedes this is an artificial constraint,
     which the Extensions.Overlap model removes). *)
  total_q t <= 1.0 +. 1e-12

let map_faults f t = { faults = Array.map f t.faults }

let map_p f t =
  { faults = Array.map (fun flt -> Fault.with_p flt (f (Fault.p flt))) t.faults }

let scale_all_p t k = map_p (fun p -> p *. k) t

let with_fault t i fault =
  let faults = Array.copy t.faults in
  faults.(i) <- fault;
  { faults }

let set_p t i p = with_fault t i (Fault.with_p t.faults.(i) p)

let iteri f t = Array.iteri f t.faults

let pp ppf t =
  Fmt.pf ppf "@[<v>universe (n=%d, pmax=%.4g, total_q=%.4g)@]" (size t) (pmax t)
    (total_q t)

(* ------------------------------------------------------------------ *)
(* Generators for the universe families used by the experiments.      *)
(* ------------------------------------------------------------------ *)

let homogeneous ~n ~p ~q = of_faults (Array.init n (fun _ -> Fault.make ~p ~q))

let uniform_random rng ~n ~p_lo ~p_hi ~total_q =
  if not (0.0 <= p_lo && p_lo <= p_hi && p_hi <= 1.0) then
    invalid_arg "Universe.uniform_random: need 0 <= p_lo <= p_hi <= 1";
  if not (0.0 < total_q && total_q <= 1.0) then
    invalid_arg "Universe.uniform_random: total_q must lie in (0, 1]";
  let p = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:p_lo ~hi:p_hi) in
  let raw = Array.init n (fun _ -> Numerics.Rng.float rng +. 1e-9) in
  let s = Numerics.Kahan.sum_array raw in
  let q = Array.map (fun w -> w /. s *. total_q) raw in
  of_arrays ~p ~q

let power_law_random rng ~n ~p_lo ~p_hi ~q_exponent ~total_q =
  if not (0.0 < total_q && total_q <= 1.0) then
    invalid_arg "Universe.power_law_random: total_q must lie in (0, 1]";
  let p = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:p_lo ~hi:p_hi) in
  let raw =
    Array.init n (fun _ ->
        Numerics.Sampler.power_law rng ~exponent:q_exponent ~lo:1e-6 ~hi:1.0)
  in
  let s = Numerics.Kahan.sum_array raw in
  let q = Array.map (fun w -> w /. s *. total_q) raw in
  of_arrays ~p ~q

let dirichlet_random rng ~n ~p_lo ~p_hi ~alpha ~total_q =
  if not (0.0 < total_q && total_q <= 1.0) then
    invalid_arg "Universe.dirichlet_random: total_q must lie in (0, 1]";
  let p = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:p_lo ~hi:p_hi) in
  let weights =
    Numerics.Sampler.dirichlet rng ~alphas:(Array.make n alpha)
  in
  let q = Array.map (fun w -> w *. total_q) weights in
  of_arrays ~p ~q

let high_quality rng ~n ~expected_faults ~total_q =
  (* The Section 4 regime: all p_i small, E[number of faults] given. *)
  if not (expected_faults > 0.0) then
    invalid_arg "Universe.high_quality: expected_faults must be positive";
  let raw = Array.init n (fun _ -> Numerics.Rng.float rng +. 1e-9) in
  let s = Numerics.Kahan.sum_array raw in
  let p = Array.map (fun w -> w /. s *. expected_faults) raw in
  Array.iter
    (fun pi ->
      if pi > 1.0 then
        invalid_arg "Universe.high_quality: expected_faults too large for n")
    p;
  let raw_q = Array.init n (fun _ -> Numerics.Rng.float rng +. 1e-9) in
  let sq = Numerics.Kahan.sum_array raw_q in
  let q = Array.map (fun w -> w /. sq *. total_q) raw_q in
  of_arrays ~p ~q
