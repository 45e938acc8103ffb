open Numerics

type t = {
  space : Space.t;
  present : int list;
  failure_set : Bitset.t;
  pfd : float;
}

let create space present =
  let sorted = List.sort_uniq compare present in
  let failure_set = Space.failure_set space sorted in
  let pfd = Profile.measure (Space.profile space) failure_set in
  { space; present = sorted; failure_set; pfd }

let perfect space = create space []

let space t = t.space
let present_faults t = t.present
let failure_set t = t.failure_set
let pfd t = t.pfd

let fails_on t demand = Bitset.mem t.failure_set (Demand.to_int demand)

let has_fault t i = List.mem i t.present

let common_faults a b =
  List.filter (fun i -> List.mem i b.present) a.present

let joint_failure_set a b =
  if Space.size a.space <> Space.size b.space then
    invalid_arg "Version.joint_failure_set: versions over different spaces";
  Bitset.inter a.failure_set b.failure_set

let pair_pfd a b =
  Profile.measure (Space.profile a.space) (joint_failure_set a b)

let additive_pfd t =
  (* The paper's non-overlap formula: sum of the present faults' q_i. When
     regions really are disjoint this equals [pfd]; when they overlap it is
     the Section 6.2 pessimistic approximation. *)
  Kahan.sum_list
    (List.map
       (fun i -> Region.measure (Space.region t.space i) (Space.profile t.space))
       t.present)

let pp ppf t =
  Fmt.pf ppf "version(faults=[%s], pfd=%.6g)"
    (String.concat "," (List.map string_of_int t.present))
    t.pfd
