open Numerics

(* Telemetry (all no-ops until enabled; see lib/obs): demand/failure
   counters across every run in the process, the latest empirical PFD,
   and a log-bucketed histogram of per-run PFD estimates. *)
let m_demands = Obs.Metrics.counter "runner.demands"
let m_system_failures = Obs.Metrics.counter "runner.system_failures"
let m_channel_failures = Obs.Metrics.counter "runner.channel_failures"
let m_coincident = Obs.Metrics.counter "runner.coincident_failures"
let m_runs = Obs.Metrics.counter "runner.runs"
let g_estimated_pfd = Obs.Metrics.gauge "runner.last_estimated_pfd"
let h_estimated_pfd = Obs.Metrics.histogram "runner.estimated_pfd"

type stats = {
  demands : int;
  system_failures : int;
  system_abstentions : int;
  channel_failures : int array;
  coincident_failures : int;
  estimated_pfd : float;
  pfd_ci : float * float;
}

(* Demand ids are drawn in blocks of this size: the profile draws stay in
   exactly the order the one-demand-at-a-time loop used (so the RNG
   stream is byte-identical — pinned by test), but the sampler's table
   lookups run in a tight batch and the evaluation loop touches only
   pre-hoisted arrays. *)
let sample_block = 1024

let run rng ~system ~demand_count =
  if demand_count <= 0 then invalid_arg "Runner.run: demand_count must be positive";
  let span = Obs.Trace.enter "runner.run" in
  let draws0 = Rng.draws rng in
  let channels = Protection.channels system in
  let n_channels = List.length channels in
  let channel_failures = Array.make n_channels 0 in
  (* The verdict comes from the sets [Protection.create] compiled; the
     channel loop only tallies channel and coincident failures. *)
  let failure_sets =
    Array.of_list
      (List.map
         (fun c -> Demandspace.Version.failure_set (Channel.version c))
         channels)
  in
  let system_failure_set = Protection.failure_set system in
  let system_abstain_set = Protection.abstain_set system in
  let system_failures = ref 0 in
  let system_abstentions = ref 0 in
  let coincident = ref 0 in
  let space = Protection.space system in
  let profile = Demandspace.Space.profile space in
  (* Per-demand-id counts for the run-log event's [demand_hist] field —
     the raw material of proven-in-use profile-drift detection
     (lib/evidence). Only accumulated while a run log is installed: the
     disabled path allocates nothing and pays one branch per demand. *)
  let log_hist = Obs.Runlog.active () in
  let hist =
    if log_hist then Array.make (Demandspace.Space.size space) 0
    else [||]
  in
  let block = Array.make (min sample_block demand_count) 0 in
  let step = ref 0 in
  while !step < demand_count do
    let n = min (Array.length block) (demand_count - !step) in
    Demandspace.Profile.sample_many profile rng block ~n;
    for i = 0 to n - 1 do
      let id = Array.unsafe_get block i in
      if log_hist then hist.(id) <- hist.(id) + 1;
      let n_failed = ref 0 in
      for c = 0 to n_channels - 1 do
        if Bitset.mem (Array.unsafe_get failure_sets c) id then begin
          channel_failures.(c) <- channel_failures.(c) + 1;
          incr n_failed
        end
      done;
      if !n_failed >= 2 then incr coincident;
      if Bitset.mem system_failure_set id then begin
        if Bitset.mem system_abstain_set id then incr system_abstentions;
        incr system_failures
      end
    done;
    step := !step + n
  done;
  let estimated_pfd =
    float_of_int !system_failures /. float_of_int demand_count
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_demands demand_count;
  Obs.Metrics.add m_system_failures !system_failures;
  Obs.Metrics.add m_channel_failures (Array.fold_left ( + ) 0 channel_failures);
  Obs.Metrics.add m_coincident !coincident;
  Obs.Metrics.set g_estimated_pfd estimated_pfd;
  Obs.Metrics.observe h_estimated_pfd estimated_pfd;
  if Obs.Runlog.active () then begin
    (* Sparse empirical demand histogram, ascending id: the pairs
       [[id, count], ...] for every demand id this run actually hit.
       lib/evidence compares the accumulated histogram against the
       declared operational profile (chi-square / KL drift). *)
    let demand_hist =
      let pairs = ref [] in
      for id = Array.length hist - 1 downto 0 do
        if hist.(id) > 0 then
          pairs :=
            Obs.Json.List [ Obs.Json.Int id; Obs.Json.Int hist.(id) ]
            :: !pairs
      done;
      Obs.Json.List !pairs
    in
    Obs.Runlog.record ~kind:"runner.run"
      [
        ("demands", Obs.Json.Int demand_count);
        ("system_failures", Obs.Json.Int !system_failures);
        ("coincident_failures", Obs.Json.Int !coincident);
        ("estimated_pfd", Obs.Json.Float estimated_pfd);
        (* Draws made by THIS run — the delta across the call, not the
           generator's lifetime total (shared generators run many runs). *)
        ("rng_draws", Obs.Json.Int (Rng.draws rng - draws0));
        ("demand_hist", demand_hist);
      ]
  end;
  Obs.Trace.leave span;
  {
    demands = demand_count;
    system_failures = !system_failures;
    system_abstentions = !system_abstentions;
    channel_failures;
    coincident_failures = !coincident;
    estimated_pfd;
    pfd_ci =
      Stats.proportion_ci ~successes:!system_failures ~trials:demand_count ();
  }

let channel_pfd_estimates stats =
  Array.map
    (fun f -> float_of_int f /. float_of_int stats.demands)
    stats.channel_failures

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>demands: %d@,system failures: %d (pfd ~ %.3g, 95%% CI [%.3g, %.3g])@,\
     channel failures: %a@,coincident failures: %d@]"
    s.demands s.system_failures s.estimated_pfd (fst s.pfd_ci) (snd s.pfd_ci)
    Fmt.(array ~sep:sp int)
    s.channel_failures s.coincident_failures;
  (* Abstention-free runs (every legacy configuration) print exactly as
     before; the extra line appears only when an adjudicator actually
     left demands unresolved. *)
  if s.system_abstentions > 0 then
    Fmt.pf ppf "@ (unresolved abstentions: %d)" s.system_abstentions
