open Numerics

type t = { forward : int array; inverse : int array }

let of_array forward =
  let n = Array.length forward in
  if n = 0 then invalid_arg "Transform.of_array: empty mapping";
  let seen = Array.make n false in
  Array.iter
    (fun y ->
      if y < 0 || y >= n then
        invalid_arg "Transform.of_array: image out of range";
      if seen.(y) then invalid_arg "Transform.of_array: not a bijection";
      seen.(y) <- true)
    forward;
  let inverse = Array.make n 0 in
  Array.iteri (fun x y -> inverse.(y) <- x) forward;
  { forward = Array.copy forward; inverse }

let identity n =
  if n <= 0 then invalid_arg "Transform.identity: size must be positive";
  let forward = Array.init n (fun i -> i) in
  { forward = Array.copy forward; inverse = forward }

let random rng n =
  if n <= 0 then invalid_arg "Transform.random: size must be positive";
  let forward = Array.init n (fun i -> i) in
  Rng.shuffle_in_place rng forward;
  of_array forward

let partial rng n ~fraction =
  if n <= 0 then invalid_arg "Transform.partial: size must be positive";
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Transform.partial: fraction outside [0, 1]";
  (* Permute a random subset of about [fraction]*n ids among themselves;
     the rest map identically. fraction 0 = identity, 1 = full shuffle. *)
  let chosen =
    Array.of_list
      (List.filter
         (fun _ -> Rng.bool rng ~p:fraction)
         (List.init n (fun i -> i)))
  in
  let shuffled = Array.copy chosen in
  Rng.shuffle_in_place rng shuffled;
  let forward = Array.init n (fun i -> i) in
  Array.iteri (fun k x -> forward.(x) <- shuffled.(k)) chosen;
  of_array forward

let size t = Array.length t.forward

let apply t x =
  if x < 0 || x >= size t then invalid_arg "Transform.apply: id out of range";
  t.forward.(x)

let apply_inverse t y =
  if y < 0 || y >= size t then
    invalid_arg "Transform.apply_inverse: id out of range";
  t.inverse.(y)

let displaced t =
  let count = ref 0 in
  Array.iteri (fun x y -> if x <> y then incr count) t.forward;
  !count

let preimage t set =
  if Bitset.length set <> size t then
    invalid_arg "Transform.preimage: set over a different space";
  let out = Bitset.create (size t) in
  Bitset.iter (fun y -> Bitset.set out t.inverse.(y)) set;
  out

let compose a b =
  if size a <> size b then invalid_arg "Transform.compose: size mismatch";
  of_array (Array.init (size a) (fun x -> a.forward.(b.forward.(x))))
