let linspace ~lo ~hi ~n =
  if n < 2 then invalid_arg "Grid.linspace: need at least two points";
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let logspace ~lo ~hi ~n =
  if not (0.0 < lo && lo < hi) then invalid_arg "Grid.logspace: need 0 < lo < hi";
  let llo = log lo and lhi = log hi in
  Array.map exp (linspace ~lo:llo ~hi:lhi ~n)

let arange ~lo ~hi ~step =
  if step <= 0.0 then invalid_arg "Grid.arange: step must be positive";
  let n = int_of_float (ceil ((hi -. lo) /. step)) in
  Array.init (max 0 n) (fun i -> lo +. (step *. float_of_int i))


let trapezoid ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Grid.trapezoid: length mismatch";
  if n < 2 then 0.0
  else
    Kahan.sum_over (n - 1) (fun i ->
        0.5 *. (xs.(i + 1) -. xs.(i)) *. (ys.(i) +. ys.(i + 1)))
