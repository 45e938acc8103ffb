type step =
  | Proportional of float
  | Single of { index : int; factor : float }
  | Per_fault of float array

let check_factor name factor =
  if Float.is_nan factor || factor < 0.0 then
    invalid_arg (name ^ ": factor must be a non-negative number")

let apply_step u step =
  match step with
  | Proportional k ->
      check_factor "Improvement.apply_step (Proportional)" k;
      Universe.scale_all_p u k
  | Single { index; factor } ->
      check_factor "Improvement.apply_step (Single)" factor;
      if index < 0 || index >= Universe.size u then
        invalid_arg "Improvement.apply_step: fault index out of range";
      Universe.with_fault u index (Fault.scale_p (Universe.fault u index) factor)
  | Per_fault factors ->
      if Array.length factors <> Universe.size u then
        invalid_arg "Improvement.apply_step: factor vector length mismatch";
      Array.iter (check_factor "Improvement.apply_step (Per_fault)") factors;
      let i = ref (-1) in
      Universe.map_faults
        (fun f ->
          incr i;
          Fault.scale_p f factors.(!i))
        u


let is_obviously_better u u' =
  (* Section 4.2: a change "in which no p_i increases and one or more
     decrease". *)
  if Universe.size u <> Universe.size u' then
    invalid_arg "Improvement.is_obviously_better: universe size mismatch";
  let none_increase = ref true in
  let some_decrease = ref false in
  Universe.iteri
    (fun i f ->
      let p = Fault.p f and p' = Fault.p (Universe.fault u' i) in
      if p' > p +. 1e-15 then none_increase := false;
      if p' < p -. 1e-15 then some_decrease := true)
    u;
  !none_increase && !some_decrease

type trajectory_point = {
  factor : float;
  mu1 : float;
  mu2 : float;
  risk_ratio : float;
  mean_gain : float;
}

let trajectory u ~step ~factors =
  Array.map
    (fun factor ->
      let u' =
        match step factor with
        | s -> apply_step u s
      in
      {
        factor;
        mu1 = Moments.mu1 u';
        mu2 = Moments.mu2 u';
        risk_ratio = Fault_count.risk_ratio u';
        mean_gain = Moments.mean_gain u';
      })
    factors

let proportional_trajectory u ~factors =
  trajectory u ~step:(fun k -> Proportional k) ~factors
