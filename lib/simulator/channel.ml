type output = Shutdown | No_action | Abstain

type t = {
  name : string;
  version : Demandspace.Version.t;
  self_check : Numerics.Bitset.t option;
}

let create ?self_check ~name version =
  (match self_check with
  | Some s
    when Numerics.Bitset.length s
         <> Demandspace.Space.size (Demandspace.Version.space version) ->
      invalid_arg "Channel.create: self-check set sized to a different space"
  | Some _ | None -> ());
  { name; version; self_check }

let name t = t.name
let version t = t.version
let self_check t = t.self_check

let respond t demand =
  (* A demand is, by definition, a plant state requiring intervention; a
     correct channel commands shutdown. The channel fails exactly when the
     demand lies in its version's failure set — silently (No_action), or
     abstaining when its self-check covers the demand and withholds the
     wrong output. *)
  if Demandspace.Version.fails_on t.version demand then
    match t.self_check with
    | Some s when Numerics.Bitset.mem s (Demandspace.Demand.to_int demand) ->
        Abstain
    | Some _ | None -> No_action
  else Shutdown

let equal a b =
  match (a, b) with
  | Shutdown, Shutdown | No_action, No_action | Abstain, Abstain -> true
  | (Shutdown | No_action | Abstain), _ -> false

let pfd t = Demandspace.Version.pfd t.version

let pp_output ppf = function
  | Shutdown -> Fmt.string ppf "shutdown"
  | No_action -> Fmt.string ppf "no-action"
  | Abstain -> Fmt.string ppf "abstain"

let pp ppf t =
  Fmt.pf ppf "channel %s (pfd=%.6g%s)" t.name (pfd t)
    (match t.self_check with Some _ -> ", self-checking" | None -> "")
