open Numerics

let sample_fault_set rng universe =
  let present = ref [] in
  for i = Core.Universe.size universe - 1 downto 0 do
    if Rng.bool rng ~p:(Core.Fault.p (Core.Universe.fault universe i)) then
      present := i :: !present
  done;
  !present

let develop rng space =
  let present = ref [] in
  for i = Demandspace.Space.fault_count space - 1 downto 0 do
    if Rng.bool rng ~p:(Demandspace.Space.introduction_prob space i) then
      present := i :: !present
  done;
  Demandspace.Version.create space !present

let develop_pair rng space = (develop rng space, develop rng space)

let develop_many rng space ~count = Array.init count (fun _ -> develop rng space)

(* ------------------------------------------------------------------ *)
(* Compiled universes                                                 *)
(* ------------------------------------------------------------------ *)

(* The abstract-development hot path (millions of sampled versions per
   Monte Carlo run) compiles the universe once: parameter vectors become
   plain float arrays and sampled fault sets become bitsets, so a pair
   draw is two linear sampling passes plus one linear summing pass
   instead of list building and an O(k^2) list intersection. The scratch
   bitsets make a compiled universe single-domain: parallel code
   compiles one per shard (see Montecarlo). *)
type compiled = {
  n : int;
  ps : float array;
  qs : float array;
  bits_a : Bitset.t;
  bits_b : Bitset.t;
}

let compile universe =
  let n = Core.Universe.size universe in
  {
    n;
    ps = Core.Universe.ps universe;
    qs = Core.Universe.qs universe;
    bits_a = Bitset.create n;
    bits_b = Bitset.create n;
  }

(* Draw order must stay i = n-1 downto 0 — the order [sample_fault_set]
   has always used — so compiled sampling consumes the RNG stream
   byte-identically to the list-based path. *)
let sample_into rng c bits =
  Bitset.reset bits;
  for i = c.n - 1 downto 0 do
    if Rng.bool rng ~p:c.ps.(i) then Bitset.set bits i
  done

(* Summing in ascending index order with [Kahan.add] reproduces
   [Kahan.sum_list] over the ascending present-index list exactly. *)
let version_pfd rng c =
  sample_into rng c c.bits_a;
  let k = Kahan.create () in
  for i = 0 to c.n - 1 do
    if Bitset.mem c.bits_a i then Kahan.add k c.qs.(i)
  done;
  Kahan.total k

let pair_pfd rng c =
  sample_into rng c c.bits_a;
  sample_into rng c c.bits_b;
  let ka = Kahan.create () and kb = Kahan.create () and kc = Kahan.create () in
  for i = 0 to c.n - 1 do
    let in_a = Bitset.mem c.bits_a i and in_b = Bitset.mem c.bits_b i in
    if in_a then Kahan.add ka c.qs.(i);
    if in_b then Kahan.add kb c.qs.(i);
    if in_a && in_b then Kahan.add kc c.qs.(i)
  done;
  (Kahan.total ka, Kahan.total kb, Kahan.total kc)

(* Sampled PFD of an N-channel system behind an arbitrary adjudicator
   term: develop [channels] abstract versions (each drawn in
   [sample_into]'s i = n-1 downto 0 order, channel by channel), give
   carried faults a [detection] chance of being caught by the channel's
   self-check, and charge q_i for every fault whose carrier/abstainer
   counts adjudicate to anything but Shutdown. With [detection = 0] and
   [adjudicator = vote ~required:r] this samples exactly the M-out-of-N
   system the closed form [Core.Voting.policy_defeat_prob] integrates. *)
let adjudicated_system_pfd ?(detection = 0.0) rng c ~channels ~adjudicator =
  if channels < 1 then
    invalid_arg "Devteam.adjudicated_system_pfd: channels must be >= 1";
  if not (detection >= 0.0 && detection <= 1.0) then
    invalid_arg "Devteam.adjudicated_system_pfd: detection outside [0, 1]";
  let carriers = Array.make c.n 0 in
  let abstainers = Array.make c.n 0 in
  for _ = 1 to channels do
    for i = c.n - 1 downto 0 do
      if Rng.bool rng ~p:c.ps.(i) then begin
        carriers.(i) <- carriers.(i) + 1;
        if detection > 0.0 && Rng.bool rng ~p:detection then
          abstainers.(i) <- abstainers.(i) + 1
      end
    done
  done;
  let k = Kahan.create () in
  for i = 0 to c.n - 1 do
    let f = carriers.(i) and ab = abstainers.(i) in
    match
      Core.Voting.decide adjudicator ~shutdowns:(channels - f)
        ~no_actions:(f - ab) ~abstains:ab
    with
    | Core.Voting.Shutdown -> ()
    | Core.Voting.No_action | Core.Voting.Abstain -> Kahan.add k c.qs.(i)
  done;
  Kahan.total k
