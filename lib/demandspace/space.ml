open Numerics

type t = {
  size : int;
  profile : Profile.t;
  regions : Region.t array;
  introduction_probs : float array;
}

let create ~profile ~faults =
  let size = Profile.size profile in
  let regions = Array.map fst faults in
  let introduction_probs = Array.map snd faults in
  if Array.length regions = 0 then invalid_arg "Space.create: no faults";
  Array.iter
    (fun r ->
      if Region.space_size r <> size then
        invalid_arg "Space.create: region over a different space")
    regions;
  Array.iter
    (fun p ->
      if not (0.0 <= p && p <= 1.0) then
        invalid_arg "Space.create: introduction probability outside [0, 1]")
    introduction_probs;
  { size; profile; regions; introduction_probs }

let size t = t.size
let profile t = t.profile
let fault_count t = Array.length t.regions
let region t i = t.regions.(i)
let introduction_prob t i = t.introduction_probs.(i)

let regions_disjoint t =
  let n = Array.length t.regions in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Region.disjoint t.regions.(i) t.regions.(j)) then ok := false
    done
  done;
  !ok

let region_measures t =
  Array.map (fun r -> Region.measure r t.profile) t.regions

let to_universe t =
  Core.Universe.of_arrays ~p:t.introduction_probs ~q:(region_measures t)

let overlap_pairs t =
  let n = Array.length t.regions in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Region.disjoint t.regions.(i) t.regions.(j)) then
        pairs := (i, j) :: !pairs
    done
  done;
  List.rev !pairs

let failure_set t present =
  let acc = Bitset.create t.size in
  List.iter
    (fun i ->
      if i < 0 || i >= fault_count t then
        invalid_arg "Space.failure_set: fault index out of range";
      Bitset.union_in_place acc (Region.members t.regions.(i)))
    present;
  acc

let pp ppf t =
  Fmt.pf ppf "space(|D|=%d, faults=%d, disjoint=%b)" t.size (fault_count t)
    (regions_disjoint t)
