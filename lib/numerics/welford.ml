type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  let delta2 = x -. t.mean in
  t.m2 <- t.m2 +. (delta *. delta2);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let mean t = if t.count = 0 then nan else t.mean

let variance t =
  if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

let std t = sqrt (variance t)
let min_value t = if t.count = 0 then nan else t.min

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean =
      a.mean +. (delta *. float_of_int b.count /. float_of_int n)
    in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
          /. float_of_int n)
    in
    { count = n; mean; m2; min = min a.min b.min; max = max a.max b.max }
