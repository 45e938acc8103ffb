open Numerics

type shape =
  | Points of int list
  | Interval of { lo : int; hi : int }
  | Box of { x_lo : int; x_hi : int; y_lo : int; y_hi : int; width : int }
  | Line of { x0 : int; y0 : int; dx : int; dy : int; steps : int; width : int }
  | Scatter of { seed : int; count : int }

type t = { space_size : int; members : Bitset.t; shape : shape }

let members t = t.members
let shape t = t.shape
let space_size t = t.space_size
let cardinal t = Bitset.cardinal t.members
let mem t d = Bitset.mem t.members (Demand.to_int d)

let points ~space_size ids =
  List.iter
    (fun i ->
      if i < 0 || i >= space_size then
        invalid_arg "Region.points: demand id out of range")
    ids;
  { space_size; members = Bitset.of_list space_size ids; shape = Points ids }

let interval ~space_size ~lo ~hi =
  if lo < 0 || hi >= space_size || lo > hi then
    invalid_arg "Region.interval: bad bounds";
  let members = Bitset.create space_size in
  for i = lo to hi do
    Bitset.set members i
  done;
  { space_size; members; shape = Interval { lo; hi } }

let box ~width ~height ~x_lo ~x_hi ~y_lo ~y_hi =
  if x_lo < 0 || x_hi >= width || x_lo > x_hi then
    invalid_arg "Region.box: bad x bounds";
  if y_lo < 0 || y_hi >= height || y_lo > y_hi then
    invalid_arg "Region.box: bad y bounds";
  let space_size = width * height in
  let members = Bitset.create space_size in
  for y = y_lo to y_hi do
    for x = x_lo to x_hi do
      Bitset.set members ((y * width) + x)
    done
  done;
  { space_size; members; shape = Box { x_lo; x_hi; y_lo; y_hi; width } }

let line ~width ~height ~x0 ~y0 ~dx ~dy ~steps =
  if dx = 0 && dy = 0 then invalid_arg "Region.line: zero direction";
  let space_size = width * height in
  let members = Bitset.create space_size in
  let placed = ref 0 in
  for s = 0 to steps - 1 do
    let x = x0 + (s * dx) and y = y0 + (s * dy) in
    if x >= 0 && x < width && y >= 0 && y < height then begin
      Bitset.set members ((y * width) + x);
      incr placed
    end
  done;
  if !placed = 0 then invalid_arg "Region.line: line misses the grid entirely";
  { space_size; members; shape = Line { x0; y0; dx; dy; steps; width } }

let scatter rng ~space_size ~count =
  if count <= 0 || count > space_size then
    invalid_arg "Region.scatter: bad point count";
  let members = Bitset.create space_size in
  let placed = ref 0 in
  (* rejection: fine because count << space_size in all uses; fall back to
     sweep when dense. *)
  if count * 2 < space_size then begin
    while !placed < count do
      let i = Rng.int rng space_size in
      if not (Bitset.mem members i) then begin
        Bitset.set members i;
        incr placed
      end
    done
  end
  else begin
    let ids = Array.init space_size (fun i -> i) in
    Rng.shuffle_in_place rng ids;
    for j = 0 to count - 1 do
      Bitset.set members ids.(j)
    done
  end;
  { space_size; members; shape = Scatter { seed = 0; count } }

let disjoint a b =
  if a.space_size <> b.space_size then
    invalid_arg "Region.disjoint: regions over different spaces";
  Bitset.disjoint a.members b.members

let union_members regions =
  match regions with
  | [] -> invalid_arg "Region.union_members: empty list"
  | r :: rest ->
      let acc = Bitset.copy r.members in
      List.iter
        (fun r' ->
          if r'.space_size <> r.space_size then
            invalid_arg "Region.union_members: regions over different spaces";
          Bitset.union_in_place acc r'.members)
        rest;
      acc

let measure t profile = Profile.measure profile t.members

let shape_name t =
  match t.shape with
  | Points _ -> "points"
  | Interval _ -> "interval"
  | Box _ -> "box"
  | Line _ -> "line"
  | Scatter _ -> "scatter"

