type comparison = {
  improvement_factor : float;
  single_improved_mu : float;
  pair_mu : float;
  diversity_wins_mean : bool;
  single_improved_bound : float;
  pair_bound : float;
  diversity_wins_bound : bool;
}

let compare_at u ~improvement_factor ~k =
  if not (improvement_factor >= 0.0 && improvement_factor <= 1.0) then
    invalid_arg "Hatton.compare_at: improvement factor must lie in [0, 1]";
  let improved = Core.Universe.scale_all_p u improvement_factor in
  let single_improved_mu = Core.Moments.mu1 improved in
  let pair_mu = Core.Moments.mu2 u in
  let single_improved_bound =
    Core.Normal_approx.single_bound improved ~k
  in
  let pair_bound = Core.Normal_approx.pair_bound u ~k in
  {
    improvement_factor;
    single_improved_mu;
    pair_mu;
    diversity_wins_mean = pair_mu < single_improved_mu;
    single_improved_bound;
    pair_bound;
    diversity_wins_bound = pair_bound < single_improved_bound;
  }

let break_even_factor u =
  (* The uniform improvement factor at which one better version matches
     the 1-out-of-2 pair on mean PFD. With p_i -> f*p_i the improved single
     version has mean f*mu1, so the break-even is mu2/mu1 — which eq. (4)
     bounds above by pmax: a single version must beat the process's worst
     fault probability to match diversity on averages. *)
  let m1 = Core.Moments.mu1 u in
  if Numerics.Stats.is_zero m1 then nan else Core.Moments.mu2 u /. m1

let sweep u ~k ~factors =
  Array.map (fun f -> compare_at u ~improvement_factor:f ~k) factors
