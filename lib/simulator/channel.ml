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
let pfd t = Demandspace.Version.pfd t.version

let pp ppf t =
  Fmt.pf ppf "channel %s (pfd=%.6g%s)" t.name (pfd t)
    (match t.self_check with Some _ -> ", self-checking" | None -> "")
