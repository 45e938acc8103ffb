let default_tol = 1e-12
let max_iter = 200

let bisect ?(tol = default_tol) f ~lo ~hi =
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then lo (* divlint: allow float-eq *)
  else if fhi = 0.0 then hi (* divlint: allow float-eq *)
  else if flo *. fhi > 0.0 then
    invalid_arg "Rootfind.bisect: no sign change over the bracket"
  else
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo < tol || iter >= max_iter then mid
      else
        let fmid = f mid in
        if fmid = 0.0 then mid (* divlint: allow float-eq *)
        else if flo *. fmid < 0.0 then loop lo mid flo (iter + 1)
        else loop mid hi fmid (iter + 1)
    in
    loop lo hi flo 0

(* Brent's method: inverse quadratic interpolation with bisection fallback. *)
let brent ?(tol = default_tol) f ~lo ~hi =
  let a = ref lo and b = ref hi in
  let fa = ref (f lo) and fb = ref (f hi) in
  if !fa = 0.0 then !a (* divlint: allow float-eq *)
  else if !fb = 0.0 then !b (* divlint: allow float-eq *)
  else if !fa *. !fb > 0.0 then
    invalid_arg "Rootfind.brent: no sign change over the bracket"
  else begin
    if abs_float !fa < abs_float !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let iter = ref 0 in
    while abs_float !fb > 0.0 && abs_float (!b -. !a) > tol && !iter < max_iter do
      let s =
        if !fa <> !fc && !fb <> !fc then
          (* inverse quadratic interpolation *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else
          (* secant *)
          !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo_bound = ((3.0 *. !a) +. !b) /. 4.0 in
      let use_bisection =
        let between =
          (s > min lo_bound !b && s < max lo_bound !b) |> not
        in
        between
        || (!mflag && abs_float (s -. !b) >= abs_float (!b -. !c) /. 2.0)
        || ((not !mflag) && abs_float (s -. !b) >= abs_float (!c -. !d) /. 2.0)
        || (!mflag && abs_float (!b -. !c) < tol)
        || ((not !mflag) && abs_float (!c -. !d) < tol)
      in
      let s = if use_bisection then (!a +. !b) /. 2.0 else s in
      mflag := use_bisection;
      let fs = f s in
      d := !c;
      c := !b;
      fc := !fb;
      if !fa *. fs < 0.0 then begin
        b := s;
        fb := fs
      end
      else begin
        a := s;
        fa := fs
      end;
      if abs_float !fa < abs_float !fb then begin
        let t = !a in
        a := !b;
        b := t;
        let t = !fa in
        fa := !fb;
        fb := t
      end;
      incr iter
    done;
    !b
  end

let minimize_golden ?(tol = 1e-10) f ~lo ~hi =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let rec loop a b iter =
    if b -. a < tol || iter >= max_iter then 0.5 *. (a +. b)
    else
      let x1 = b -. (phi *. (b -. a)) in
      let x2 = a +. (phi *. (b -. a)) in
      if f x1 < f x2 then loop a x2 (iter + 1) else loop x1 b (iter + 1)
  in
  loop lo hi 0
