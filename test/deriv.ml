(* Finite-difference derivatives: the numerical reference the analytic
   derivatives of the risk ratio (Appendices A and B) and the tail-bound
   log-MGF are checked against. Compiled into the test executables only;
   no library code differentiates numerically. *)

(* Relative step of the central and partial differences (the partial
   does not mutate its input point). *)
let h = 1e-6

let central f x =
  let h = h *. max 1.0 (abs_float x) in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let richardson f x =
  (* Richardson extrapolation of the central difference: combine step sizes
     h and h/2 to cancel the O(h^2) term, giving an O(h^4) estimate. *)
  let h = 1e-3 *. max 1.0 (abs_float x) in
  let d1 = (f (x +. h) -. f (x -. h)) /. (2.0 *. h) in
  let h2 = h /. 2.0 in
  let d2 = (f (x +. h2) -. f (x -. h2)) /. (2.0 *. h2) in
  ((4.0 *. d2) -. d1) /. 3.0

let partial f x i =
  let xi = x.(i) in
  let step = h *. max 1.0 (abs_float xi) in
  let eval v =
    let x' = Array.copy x in
    x'.(i) <- v;
    f x'
  in
  (eval (xi +. step) -. eval (xi -. step)) /. (2.0 *. step)

let gradient f x = Array.init (Array.length x) (fun i -> partial f x i)

(* Three-point stencil, relative step 1e-4. *)
let second f x =
  let h = 1e-4 *. max 1.0 (abs_float x) in
  (f (x +. h) -. (2.0 *. f x) +. f (x -. h)) /. (h *. h)
