type t = { p : float; q : float }

let make ~p ~q =
  if Float.is_nan p || p < 0.0 || p > 1.0 then
    invalid_arg "Fault.make: p must lie in [0, 1]";
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Fault.make: q must lie in [0, 1]";
  { p; q }

let p t = t.p
let q t = t.q

let scale_p t factor =
  let p = t.p *. factor in
  if p < 0.0 || p > 1.0 then
    invalid_arg "Fault.scale_p: scaled probability leaves [0, 1]";
  { t with p }

let with_p t p = make ~p ~q:t.q

let mean_contribution t = t.p *. t.q
let variance_contribution t = t.p *. (1.0 -. t.p) *. t.q *. t.q

let common_mean_contribution t = t.p *. t.p *. t.q

let common_variance_contribution t =
  let p2 = t.p *. t.p in
  p2 *. (1.0 -. p2) *. t.q *. t.q

