open Numerics

type voted_run = {
  pfds : float array;
  system_faulty : int;
  single_faulty : int;
}

(* Abstract-model simulation of an N-of-M architecture: develop the N
   channels as independent Bernoulli draws over the universe (exactly
   the paper's development model) and apply the voting rule per fault —
   fault i defeats the system iff at least N - M + 1 channels carry it.
   This is an independent implementation of the event [Voting] treats
   with binomial tail probabilities, which is what makes the comparison
   a differential test rather than a tautology. *)
let voted rng universe ~arch ~replications =
  if replications < 1 then invalid_arg "Sim.voted: replications must be >= 1";
  let n = Core.Universe.size universe in
  let channels = Core.Voting.channels arch in
  let defeat = channels - Core.Voting.required arch + 1 in
  let ps = Core.Universe.ps universe in
  let qs = Core.Universe.qs universe in
  let counts = Array.make n 0 in
  let pfds = Array.make replications 0.0 in
  let system_faulty = ref 0 and single_faulty = ref 0 in
  for r = 0 to replications - 1 do
    Array.fill counts 0 n 0;
    let first_nonempty = ref false in
    for c = 0 to channels - 1 do
      for i = 0 to n - 1 do
        if Rng.bool rng ~p:ps.(i) then begin
          counts.(i) <- counts.(i) + 1;
          if c = 0 then first_nonempty := true
        end
      done
    done;
    pfds.(r) <-
      Kahan.sum_over n (fun i -> if counts.(i) >= defeat then qs.(i) else 0.0);
    if !first_nonempty then incr single_faulty;
    if Array.exists (fun c -> c >= defeat) counts then incr system_faulty
  done;
  { pfds; system_faulty = !system_faulty; single_faulty = !single_faulty }

(* Full-stack simulation: concrete versions over the demand space,
   executable channels behind an M-out-of-N [Core.Voting] adjudicator,
   exact system PFD from the verdict bitset [Protection.create]
   compiles. Exercises the entire executable path the abstract sampler
   above bypasses. *)
let concrete_voted_pfds rng space ~arch ~replications =
  if replications < 1 then
    invalid_arg "Sim.concrete_voted_pfds: replications must be >= 1";
  let channels = Core.Voting.channels arch in
  let required = Core.Voting.required arch in
  Array.init replications (fun _ ->
      let chans =
        List.init channels (fun i ->
            Simulator.Channel.create
              ~name:(Printf.sprintf "ch%d" i)
              (Simulator.Devteam.develop rng space))
      in
      Simulator.Protection.true_pfd (Simulator.Protection.voted ~required chans))

(* Concrete 1-out-of-2 development: true single and pair PFDs by set
   intersection (no non-overlap assumption used on the simulation
   side). *)
let concrete_pairs rng space ~replications =
  if replications < 1 then
    invalid_arg "Sim.concrete_pairs: replications must be >= 1";
  let singles = Array.make replications 0.0 in
  let pairs = Array.make replications 0.0 in
  for r = 0 to replications - 1 do
    let va, vb = Simulator.Devteam.develop_pair rng space in
    singles.(r) <- Demandspace.Version.pfd va;
    pairs.(r) <- Demandspace.Version.pair_pfd va vb
  done;
  (singles, pairs)

(* Adjudicated-system sampler through the *list* path: per replication,
   develop [channels] abstract fault sets and, per fault, build the
   actual output vector (clean channel -> Shutdown, undetected
   carrier -> No_action, self-detected carrier -> Abstain) and hand it
   to [Reference.combine]. Independent of both the counts fast path
   ([Devteam.adjudicated_system_pfd], the counts table
   [Protection.create] compiles with) and the closed form
   ([Voting.policy_defeat_prob]): a bug in the fold, the counts table or
   the binomial integration breaks three-way agreement. *)
let adjudicated rng universe ~channels ~detection ~adjudicator ~replications =
  if replications < 1 then
    invalid_arg "Sim.adjudicated: replications must be >= 1";
  if channels < 1 then invalid_arg "Sim.adjudicated: channels must be >= 1";
  if not (detection >= 0.0 && detection <= 1.0) then
    invalid_arg "Sim.adjudicated: detection outside [0, 1]";
  let n = Core.Universe.size universe in
  let ps = Core.Universe.ps universe in
  let qs = Core.Universe.qs universe in
  let outputs = Array.make_matrix channels n Core.Voting.Shutdown in
  Array.init replications (fun _ ->
      for c = 0 to channels - 1 do
        for i = 0 to n - 1 do
          outputs.(c).(i) <-
            (if Rng.bool rng ~p:ps.(i) then
               if detection > 0.0 && Rng.bool rng ~p:detection then
                 Core.Voting.Abstain
               else Core.Voting.No_action
             else Core.Voting.Shutdown)
        done
      done;
      Kahan.sum_over n (fun i ->
          let vector = List.init channels (fun c -> outputs.(c).(i)) in
          if Reference.system_fails adjudicator vector then qs.(i)
          else 0.0))

let count_positive samples =
  Array.fold_left (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 samples
