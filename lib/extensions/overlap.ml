open Numerics

type analysis = {
  overlap_pairs : int;
  exact_mu1 : float;
  exact_mu2 : float;
  additive_mu1 : float;
  additive_mu2 : float;
  mu1_pessimism : float;
  mu2_pessimism : float;
}

let analyse space =
  let exact_mu1 = Baselines.Eckhardt_lee.mean_single space in
  let exact_mu2 = Baselines.Eckhardt_lee.mean_pair space in
  let u = Demandspace.Space.to_universe space in
  let additive_mu1 = Core.Moments.mu1 u in
  let additive_mu2 = Core.Moments.mu2 u in
  {
    overlap_pairs = List.length (Demandspace.Space.overlap_pairs space);
    exact_mu1;
    exact_mu2;
    additive_mu1;
    additive_mu2;
    mu1_pessimism = (if exact_mu1 > 0.0 then additive_mu1 /. exact_mu1 else nan);
    mu2_pessimism = (if exact_mu2 > 0.0 then additive_mu2 /. exact_mu2 else nan);
  }

let merged_universe space =
  (* The paper's Section 6.1 suggestion for perfectly coupled mistakes,
     adapted to overlap: greedily merge overlapping regions into connected
     groups; each group becomes one potential fault whose region is the
     union and whose probability is that of at least one member being
     introduced. This under-counts partial overlaps but restores the
     non-overlap assumption exactly. *)
  let n = Demandspace.Space.fault_count space in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  List.iter (fun (i, j) -> union i j) (Demandspace.Space.overlap_pairs space);
  let groups = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let r = find i in
    Hashtbl.replace groups r (i :: (try Hashtbl.find groups r with Not_found -> []))
  done;
  let profile = Demandspace.Space.profile space in
  let entries =
    Hashtbl.fold
      (fun _ members acc ->
        let union_set =
          Demandspace.Region.union_members
            (List.map (Demandspace.Space.region space) members)
        in
        let q = Demandspace.Profile.measure profile union_set in
        let p =
          1.0
          -. exp
               (Kahan.sum_list
                  (List.map
                     (fun i ->
                       Float.log1p
                         (-.Demandspace.Space.introduction_prob space i))
                     members))
        in
        (p, q) :: acc)
      groups []
  in
  Core.Universe.of_pairs entries

let monte_carlo_pessimism rng space ~replications =
  (* Distribution-level check: sample versions, compare true PFD (measure
     of the union) with the additive PFD (sum of q_i); returns the mean
     ratio additive/true over versions that have any fault. *)
  if replications <= 0 then
    invalid_arg "Overlap.monte_carlo_pessimism: replications must be positive";
  let acc = Welford.create () in
  let develop () =
    let present = ref [] in
    for i = Demandspace.Space.fault_count space - 1 downto 0 do
      if Rng.bool rng ~p:(Demandspace.Space.introduction_prob space i) then
        present := i :: !present
    done;
    Demandspace.Version.create space !present
  in
  for _ = 1 to replications do
    let v = develop () in
    let true_pfd = Demandspace.Version.pfd v in
    if true_pfd > 0.0 then
      Welford.add acc (Demandspace.Version.additive_pfd v /. true_pfd)
  done;
  Welford.mean acc
