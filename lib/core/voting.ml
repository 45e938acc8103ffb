open Numerics

type t = { channels : int; required : int }

let create ~channels ~required =
  if channels < 1 then invalid_arg "Voting.create: need at least one channel";
  if required < 1 || required > channels then
    invalid_arg "Voting.create: required must lie in [1, channels]";
  { channels; required }

let one_out_of_two = { channels = 2; required = 1 }
let two_out_of_three = { channels = 3; required = 2 }

let channels t = t.channels
let required t = t.required

(* Every closed form of a voted system is a function of the per-fault
   probability that the fault defeats the adjudication — the voted
   system's analogue of the pair's p_i^2 — and of the region sizes q_i.
   Each family below is one of these aggregators applied to its own
   [defeat] function. *)
let defeat_probs defeat u =
  Array.map (fun f -> defeat ~p:(Fault.p f)) (Universe.faults u)

let mu_of defeat u =
  Kahan.sum_over (Universe.size u) (fun i ->
      let f = Universe.fault u i in
      defeat ~p:(Fault.p f) *. Fault.q f)

let var_of defeat u =
  Kahan.sum_over (Universe.size u) (fun i ->
      let f = Universe.fault u i in
      let s = defeat ~p:(Fault.p f) in
      s *. (1.0 -. s) *. Fault.q f *. Fault.q f)

let p_some_of defeat u = Fault_count.prob_some (defeat_probs defeat u)

let risk_ratio_of defeat u =
  let denom = Fault_count.p_n1_pos u in
  if Stats.is_zero denom then nan else p_some_of defeat u /. denom

let pfd_dist_of defeat u =
  Pfd_dist.exact_of_vectors ~probs:(defeat_probs defeat u)
    ~values:(Universe.qs u) ()

let fault_defeats_system t ~p =
  (* The system mishandles a demand in fault i's region iff fewer than
     [required] channels are free of fault i, i.e. at least
     channels - required + 1 channels contain it. *)
  let k = t.channels - t.required + 1 in
  Betainc.binomial_tail_direct ~n:t.channels ~p k

let mu t u = mu_of (fault_defeats_system t) u
let var t u = var_of (fault_defeats_system t) u
let sigma t u = sqrt (var t u)
let system_fault_probs t u = defeat_probs (fault_defeats_system t) u
let p_some_system_fault t u = p_some_of (fault_defeats_system t) u
let risk_ratio_vs_single t u = risk_ratio_of (fault_defeats_system t) u
let pfd_dist t u = pfd_dist_of (fault_defeats_system t) u

let confidence_bound t u ~k = mu t u +. (k *. sigma t u)

let pp ppf t = Fmt.pf ppf "%d-out-of-%d" t.required t.channels

(* ------------------------------------------------------------------ *)
(* Adjudication combinator calculus                                   *)
(* ------------------------------------------------------------------ *)

(* The executable protection system (Simulator.Protection) and the analytic
   closed forms below share one counts-level algebra, defined here so a
   formula/simulator divergence can only come from how the counts are
   *produced*, never from two drifting copies of the decision rule.

   A channel's adjudicated vote is one of three lattice points:
   Shutdown (demand detected), No_action (failed silently), Abstain
   (self-check caught the failure, output withheld). Every combinator
   is a function of the vote *counts* only, which makes permutation
   invariance structural. *)

type decision = Shutdown | No_action | Abstain

type policy =
  | Unit
  | Vote of int
  | Compose of policy * policy
  | Fallback of policy * policy

let vote ~required =
  if required < 1 then invalid_arg "Voting.vote: required must be >= 1";
  Vote required

let compose a b = Compose (a, b)
let fallback a b = Fallback (a, b)

let equal_decision a b =
  match (a, b) with
  | Shutdown, Shutdown | No_action, No_action | Abstain, Abstain -> true
  | (Shutdown | No_action | Abstain), _ -> false

(* A lower bound on the channels the policy needs for a definite
   verdict: the first stage of a cascade sees the raw channel vector, so
   only it constrains the arity; a fallback is usable whenever either
   branch is. Mirrors the legacy "more votes required than channels"
   check for the plain M-out-of-N instance. *)
let rec policy_min_channels = function
  | Unit -> 1
  | Vote r -> max 1 r
  | Compose (a, _) -> policy_min_channels a
  | Fallback (a, b) -> min (policy_min_channels a) (policy_min_channels b)

(* Survivor semantics over vote counts. [Unit] passes the vector
   through; [Vote r] collapses it to a unanimous verdict — Shutdown on
   a quorum of shutdown votes, Abstain when too few channels are still
   voting for the quorum to be reachable (quorum loss), No_action
   otherwise; [Compose] feeds the first stage's survivors to the
   second; [Fallback] re-adjudicates the original vector through the
   backup when the primary's verdict collapses to Abstain. *)
let rec run_policy p ~shutdowns ~no_actions ~abstains =
  match p with
  | Unit -> (shutdowns, no_actions, abstains)
  | Vote r ->
      if shutdowns >= r then (1, 0, 0)
      else if shutdowns + no_actions < r then (0, 0, 1)
      else (0, 1, 0)
  | Compose (a, b) ->
      let shutdowns, no_actions, abstains =
        run_policy a ~shutdowns ~no_actions ~abstains
      in
      run_policy b ~shutdowns ~no_actions ~abstains
  | Fallback (a, b) ->
      let (s, na, _) as va = run_policy a ~shutdowns ~no_actions ~abstains in
      if s = 0 && na = 0 then run_policy b ~shutdowns ~no_actions ~abstains
      else va

(* Collapse a survivor vector to a verdict: any surviving shutdown vote
   carries (the paper's OR reading), a surviving silent failure beats a
   sea of abstentions, and a vector of pure abstentions abstains. *)
let decide p ~shutdowns ~no_actions ~abstains =
  if shutdowns < 0 || no_actions < 0 || abstains < 0 then
    invalid_arg "Voting.decide: negative vote count";
  let s, na, _ = run_policy p ~shutdowns ~no_actions ~abstains in
  if s > 0 then Shutdown else if na > 0 then No_action else Abstain

let rec pp_policy ppf = function
  | Unit -> Fmt.string ppf "unit"
  | Vote 1 -> Fmt.string ppf "1-out-of-N (OR)"
  | Vote r -> Fmt.pf ppf "%d-out-of-N" r
  | Compose (a, b) -> Fmt.pf ppf "compose(%a; %a)" pp_policy a pp_policy b
  | Fallback (a, b) -> Fmt.pf ppf "fallback(%a; %a)" pp_policy a pp_policy b

(* ---- closed-form PFD evaluation for composed adjudicators ---- *)

(* P(Bin(n, p) = k) via the log-beta identity C(n, k) =
   1 / ((n+1) B(n-k+1, k+1)); the endpoint probabilities are handled
   outside log space so p in {0, 1} stays exact. *)
let binom_pmf ~n ~p k =
  if k < 0 || k > n then 0.0
  else if p <= 0.0 then if k = 0 then 1.0 else 0.0
  else if p >= 1.0 then if k = n then 1.0 else 0.0
  else
    let fk = float_of_int k and fn = float_of_int n in
    let log_choose =
      -.log (fn +. 1.0) -. Betainc.log_beta (fn -. fk +. 1.0) (fk +. 1.0)
    in
    exp (log_choose +. (fk *. log p) +. ((fn -. fk) *. Float.log1p (-.p)))

(* Probability that a fault introduced per channel with probability [p]
   — and, when present, caught at development time by the channel's
   self-check with probability [detection] — leads the adjudicated
   system to mishandle a demand in the fault's region. On such a demand
   a clean channel votes Shutdown, an undetected carrier No_action and
   a detected carrier Abstain, so with F ~ Bin(channels, p) carriers of
   which A ~ Bin(F, detection) abstain, the system fails exactly when
   [decide] of the counts is not Shutdown. *)
let policy_defeat_prob policy ~channels ?(detection = 0.0) ~p () =
  if channels < 1 then
    invalid_arg "Voting.policy_defeat_prob: channels must be >= 1";
  if not (0.0 <= p && p <= 1.0) then
    invalid_arg "Voting.policy_defeat_prob: p outside [0, 1]";
  if not (0.0 <= detection && detection <= 1.0) then
    invalid_arg "Voting.policy_defeat_prob: detection outside [0, 1]";
  let acc = Kahan.create () in
  for f = 0 to channels do
    let pf = binom_pmf ~n:channels ~p f in
    if pf > 0.0 then
      for a = 0 to f do
        let pa = binom_pmf ~n:f ~p:detection a in
        if pa > 0.0 then
          let d =
            decide policy ~shutdowns:(channels - f) ~no_actions:(f - a)
              ~abstains:a
          in
          if not (equal_decision d Shutdown) then Kahan.add acc (pf *. pa)
      done
  done;
  Kahan.total acc

let policy_defeat policy ~channels detection ~p =
  policy_defeat_prob policy ~channels ?detection ~p ()

let policy_mu policy ~channels ?detection u =
  mu_of (policy_defeat policy ~channels detection) u

let policy_var policy ~channels ?detection u =
  var_of (policy_defeat policy ~channels detection) u

let policy_sigma policy ~channels ?detection u =
  sqrt (policy_var policy ~channels ?detection u)

let policy_p_some_system_fault policy ~channels ?detection u =
  p_some_of (policy_defeat policy ~channels detection) u

let policy_risk_ratio_vs_single policy ~channels ?detection u =
  risk_ratio_of (policy_defeat policy ~channels detection) u

let policy_pfd_dist policy ~channels ?detection u =
  pfd_dist_of (policy_defeat policy ~channels detection) u

let arch_policy t = Vote t.required
