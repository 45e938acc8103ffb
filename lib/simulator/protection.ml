open Numerics

type t = {
  space : Demandspace.Space.t;
  channels : Channel.t list;
  adjudicator : Core.Voting.policy;
  failure_set : Bitset.t;  (** the verdict is not [Shutdown] *)
  abstain_set : Bitset.t;  (** the verdict is [Abstain] *)
}

let space_of channel = Demandspace.Version.space (Channel.version channel)

let create ?(adjudicator = Core.Voting.vote ~required:1) channels =
  let space =
    match channels with
    | [] -> invalid_arg "Protection.create: no channels"
    | first :: _ -> space_of first
  in
  let size = Demandspace.Space.size space in
  let n = List.length channels in
  if Core.Voting.policy_min_channels adjudicator > n then
    invalid_arg "Protection.create: more votes required than channels";
  if List.exists (fun c -> Demandspace.Space.size (space_of c) <> size) channels
  then invalid_arg "Protection.create: channels over different demand spaces";
  (* Compile: adjudication is permutation-invariant, so the verdict on a
     demand is a function of its (failed, abstaining) channel counts.
     Tabulate it (row f holds abstention counts 0..f), then sweep the
     demand space counting each channel's failures and, among them, the
     ones its self-check covers (where it abstains). *)
  let verdict =
    Array.init (n + 1) (fun f ->
        Array.init (f + 1) (fun ab ->
            Core.Voting.decide adjudicator ~shutdowns:(n - f)
              ~no_actions:(f - ab) ~abstains:ab))
  in
  let fails =
    Array.of_list
      (List.map
         (fun c -> Demandspace.Version.failure_set (Channel.version c))
         channels)
  in
  let checks = Array.of_list (List.map Channel.self_check channels) in
  let failure_set = Bitset.create size and abstain_set = Bitset.create size in
  for d = 0 to size - 1 do
    let failed = ref 0 and abstained = ref 0 in
    for c = 0 to n - 1 do
      if Bitset.mem fails.(c) d then begin
        incr failed;
        match checks.(c) with
        | Some check when Bitset.mem check d -> incr abstained
        | Some _ | None -> ()
      end
    done;
    match verdict.(!failed).(!abstained) with
    | Core.Voting.Shutdown -> ()
    | Core.Voting.No_action -> Bitset.set failure_set d
    | Core.Voting.Abstain ->
        Bitset.set failure_set d;
        Bitset.set abstain_set d
  done;
  { space; channels; adjudicator; failure_set; abstain_set }

let one_out_of_two a b = create [ a; b ]

let voted ~required channels =
  create ~adjudicator:(Core.Voting.vote ~required) channels

let channels t = t.channels
let adjudicator t = t.adjudicator
let failure_set t = t.failure_set
let abstain_set t = t.abstain_set

let space t = t.space

let fails_on t demand =
  Bitset.mem t.failure_set (Demandspace.Demand.to_int demand)

let respond t demand =
  let d = Demandspace.Demand.to_int demand in
  if not (Bitset.mem t.failure_set d) then Core.Voting.Shutdown
  else if Bitset.mem t.abstain_set d then Core.Voting.Abstain
  else Core.Voting.No_action

(* An unresolved [Abstain] verdict counts as a system failure: the plant
   misses the intervention either way. *)
let true_pfd t =
  Demandspace.Profile.measure
    (Demandspace.Space.profile t.space)
    t.failure_set

let pp ppf t =
  Fmt.pf ppf "@[<v>protection system: %a@,%a@]" Core.Voting.pp_policy
    t.adjudicator
    (Fmt.list ~sep:Fmt.cut Channel.pp)
    t.channels
