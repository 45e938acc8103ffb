type outcome = {
  oracle : string;
  quantity : string;
  analytic : float;
  simulated : float;
  verdict : Compare.verdict;
}

type t = {
  id : string;
  description : string;
  run : Scenario.t -> (string * Compare.verdict) list;
}

let make ~id ~description run = { id; description; run }
let id t = t.id
let description t = t.description
let passed o = o.verdict.Compare.pass

(* Every oracle derives its simulation randomness from the scenario's
   seed through a per-oracle split index, so oracles neither share nor
   perturb each other's streams: adding an oracle to the registry never
   changes an existing oracle's verdict on the same scenario. *)
let rng scenario ~salt =
  Numerics.Rng.split
    (Numerics.Rng.create ~seed:(Scenario.sim_seed scenario))
    ~index:salt

let run t scenario =
  let outcome (quantity, (verdict : Compare.verdict)) =
    let analytic = verdict.analytic and simulated = verdict.simulated in
    { oracle = t.id; quantity; analytic; simulated; verdict }
  in
  (* A body that raises is one failing outcome naming the exception, so a
     sweep reports the case and its replay seed instead of aborting. *)
  let verdicts =
    try t.run scenario
    with exn ->
      let detail = Printexc.to_string exn in
      [
        ( "raised " ^ detail,
          { Compare.pass = false; comparator = "no exception"; detail;
            analytic = nan; simulated = nan } );
      ]
  in
  let outcomes = List.map outcome verdicts in
  if Obs.Runlog.active () then
    List.iter
      (fun o ->
        Obs.Runlog.record ~kind:"check.oracle"
          [
            ("oracle", Obs.Json.String o.oracle);
            ("quantity", Obs.Json.String o.quantity);
            ("analytic", Obs.Json.Float o.analytic);
            ("simulated", Obs.Json.Float o.simulated);
            ("comparator", Obs.Json.String o.verdict.Compare.comparator);
            ("pass", Obs.Json.Bool (passed o));
          ])
      outcomes;
  outcomes

let pp_outcome ppf o =
  Fmt.pf ppf "[%s] %s: analytic %.6g vs simulated %.6g — %a" o.oracle
    o.quantity o.analytic o.simulated Compare.pp o.verdict
