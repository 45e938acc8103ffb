(* Prop — a small property-based testing harness over Numerics.Rng.

   Each case draws its inputs from a dedicated [Rng.split] substream of
   one fixed base seed, so a suite is deterministic from run to run and
   across machines; set PROP_SEED=<int> to replay a reported failure or
   to explore a different stream. On failure the harness greedily
   shrinks the counterexample and reports the base seed, the case index
   and the shrunk value. *)

let base_seed =
  match Sys.getenv_opt "PROP_SEED" with
  | None | Some "" -> 0x5eed_cafe
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some seed -> seed
      | None -> invalid_arg ("PROP_SEED is not an integer: " ^ s))

type 'a t = {
  gen : Numerics.Rng.t -> 'a;
  shrink : 'a -> 'a Seq.t;
  pp : Format.formatter -> 'a -> unit;
}

let no_shrink _ = Seq.empty
let make ?(shrink = no_shrink) ~pp gen = { gen; shrink; pp }
let generate t rng = t.gen rng

(* ---- primitives ---- *)

(* Shrinking moves toward [lo]: jump all the way, then halve the
   distance, then step by one. *)
let shrink_int_toward lo v =
  List.to_seq [ lo; lo + ((v - lo) / 2); v - 1 ]
  |> Seq.filter (fun c -> c >= lo && c < v)

let int_range lo hi =
  if hi < lo then invalid_arg "Prop.int_range: empty range";
  make
    ~shrink:(shrink_int_toward lo)
    ~pp:Format.pp_print_int
    (fun rng -> lo + Numerics.Rng.int rng (hi - lo + 1))

(* Uniform on [lo, hi); shrinks toward [lo]. *)
let float_range lo hi =
  if not (lo <= hi) then invalid_arg "Prop.float_range: empty range";
  make
    ~shrink:(fun x -> if x > lo then Seq.return lo else Seq.empty)
    ~pp:(fun ppf x -> Format.fprintf ppf "%.17g" x)
    (fun rng -> Numerics.Rng.uniform rng ~lo ~hi)

(* Arrays of [min_len..max_len] elements of [elt]; shrinks by dropping
   trailing elements down to [min_len]. *)
let array ~min_len ~max_len elt =
  if min_len < 0 || max_len < min_len then
    invalid_arg "Prop.array: bad length range";
  make
    ~shrink:(fun a ->
      let n = Array.length a in
      List.to_seq [ min_len; (n + min_len) / 2; n - 1 ]
      |> Seq.filter (fun k -> k >= min_len && k < n)
      |> Seq.map (fun k -> Array.sub a 0 k))
    ~pp:(fun ppf a ->
      Format.fprintf ppf "[|@[%a@]|]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           elt.pp)
        (Array.to_list a))
    (fun rng ->
      Array.init (min_len + Numerics.Rng.int rng (max_len - min_len + 1))
        (fun _ -> elt.gen rng))

let pair a b =
  make
    ~shrink:(fun (x, y) ->
      Seq.append
        (Seq.map (fun x' -> (x', y)) (a.shrink x))
        (Seq.map (fun y' -> (x, y')) (b.shrink y)))
    ~pp:(fun ppf (x, y) -> Format.fprintf ppf "(@[%a,@ %a@])" a.pp x b.pp y)
    (fun rng ->
      let x = a.gen rng in
      let y = b.gen rng in
      (x, y))

let triple a b c =
  make
    ~shrink:(fun (x, y, z) ->
      List.to_seq
        [
          Seq.map (fun x' -> (x', y, z)) (a.shrink x);
          Seq.map (fun y' -> (x, y', z)) (b.shrink y);
          Seq.map (fun z' -> (x, y, z')) (c.shrink z);
        ]
      |> Seq.concat)
    ~pp:(fun ppf (x, y, z) ->
      Format.fprintf ppf "(@[%a,@ %a,@ %a@])" a.pp x b.pp y c.pp z)
    (fun rng ->
      let x = a.gen rng in
      let y = b.gen rng in
      let z = c.gen rng in
      (x, y, z))

let quad a b c d =
  make
    ~shrink:(fun (x, y, z, w) ->
      List.to_seq
        [
          Seq.map (fun x' -> (x', y, z, w)) (a.shrink x);
          Seq.map (fun y' -> (x, y', z, w)) (b.shrink y);
          Seq.map (fun z' -> (x, y, z', w)) (c.shrink z);
          Seq.map (fun w' -> (x, y, z, w')) (d.shrink w);
        ]
      |> Seq.concat)
    ~pp:(fun ppf (x, y, z, w) ->
      Format.fprintf ppf "(@[%a,@ %a,@ %a,@ %a@])" a.pp x b.pp y c.pp z d.pp w)
    (fun rng ->
      let x = a.gen rng in
      let y = b.gen rng in
      let z = c.gen rng in
      let w = d.gen rng in
      (x, y, z, w))

(* Any finite double, one case in four drawn from the subnormal range
   (zero exponent field, random sign and mantissa) so the edge of the
   tolerance comparisons is exercised, not just reachable. *)
let finite_float =
  make
    ~pp:(fun ppf x -> Format.fprintf ppf "%h" x)
    (fun rng ->
      let bits () = Numerics.Rng.next_int64 rng in
      if Numerics.Rng.int rng 4 = 0 then
        (* keep the sign bit and the 52 mantissa bits *)
        Int64.float_of_bits (Int64.logand (bits ()) 0x800F_FFFF_FFFF_FFFFL)
      else
        let rec draw () =
          let x = Int64.float_of_bits (bits ()) in
          if Float.is_finite x then x else draw ()
        in
        draw ())

(* ---- domain generators ---- *)

(* RNG seeds: positive, wide enough to hit distinct splitmix streams,
   shrinking toward 1 for readable counterexamples. *)
let seed = int_range 1 1_000_000

(* Shard counts: 1 (the legacy sequential path) through well past the
   default, so properties exercise both branches of the sharding
   contract. *)
let shard_count = int_range 1 24

(* Sized universe: a handful of faults with mixed p and a subdivided
   total failure measure. Shrinks by dropping trailing faults. *)
let universe ?(max_faults = 10) () =
  if max_faults < 1 then invalid_arg "Prop.universe: max_faults must be >= 1";
  make
    ~shrink:(fun u ->
      let faults = Core.Universe.faults u in
      let n = Array.length faults in
      List.to_seq [ (n + 1) / 2; n - 1 ]
      |> Seq.filter (fun k -> k >= 1 && k < n)
      |> Seq.map (fun k -> Core.Universe.of_faults (Array.sub faults 0 k)))
    ~pp:Core.Universe.pp
    (fun rng ->
      let n = 1 + Numerics.Rng.int rng max_faults in
      let total_q = Numerics.Rng.uniform rng ~lo:0.05 ~hi:0.6 in
      Core.Universe.uniform_random rng ~n ~p_lo:0.02 ~p_hi:0.5 ~total_q)

(* Sized concrete demand space: a uniform profile and a few interval
   faults (overlaps allowed — versions take unions). Shrinks by
   dropping trailing faults. *)
let space ?(max_size = 160) ?(max_faults = 5) () =
  if max_size < 40 then invalid_arg "Prop.space: max_size must be >= 40";
  if max_faults < 1 then invalid_arg "Prop.space: max_faults must be >= 1";
  let rebuild sp k =
    Demandspace.Space.create
      ~profile:(Demandspace.Space.profile sp)
      ~faults:
        (Array.init k (fun i ->
             ( Demandspace.Space.region sp i,
               Demandspace.Space.introduction_prob sp i )))
  in
  make
    ~shrink:(fun sp ->
      let n = Demandspace.Space.fault_count sp in
      List.to_seq [ (n + 1) / 2; n - 1 ]
      |> Seq.filter (fun k -> k >= 1 && k < n)
      |> Seq.map (rebuild sp))
    ~pp:Demandspace.Space.pp
    (fun rng ->
      let size = 40 + Numerics.Rng.int rng (max_size - 40 + 1) in
      let n_faults = 1 + Numerics.Rng.int rng max_faults in
      let faults =
        Array.init n_faults (fun _ ->
            let lo = Numerics.Rng.int rng size in
            let width = 1 + Numerics.Rng.int rng (max 1 (size / 8)) in
            let hi = min (size - 1) (lo + width - 1) in
            let region = Demandspace.Region.interval ~space_size:size ~lo ~hi in
            (region, Numerics.Rng.uniform rng ~lo:0.05 ~hi:0.7))
      in
      Demandspace.Space.create
        ~profile:(Demandspace.Profile.uniform ~size)
        ~faults)

(* Assessment-service request terms (the lib/serve wire protocol): any
   verb, universe vectors and knobs within the protocol limits, float
   parameters drawn from the full [0, 1) double range so the codec
   round-trip property exercises exact float rendering. Shrinks toward
   the cheapest verb (Moments), then drops trailing faults — a failing
   codec property lands on a one-fault moments request. *)
let serve_request ?(max_faults = 8) () =
  if max_faults < 1 then
    invalid_arg "Prop.serve_request: max_faults must be >= 1";
  let truncate (r : Serve.Proto.request) k =
    {
      r with
      Serve.Proto.u =
        {
          Serve.Proto.ps = Array.sub r.Serve.Proto.u.Serve.Proto.ps 0 k;
          qs = Array.sub r.Serve.Proto.u.Serve.Proto.qs 0 k;
        };
    }
  in
  make
    ~shrink:(fun (r : Serve.Proto.request) ->
      let n = Array.length r.Serve.Proto.u.Serve.Proto.ps in
      Seq.append
        (match r.Serve.Proto.verb with
        | Serve.Proto.Moments -> Seq.empty
        | _ -> Seq.return { r with Serve.Proto.verb = Serve.Proto.Moments })
        (List.to_seq [ (n + 1) / 2; n - 1 ]
        |> Seq.filter (fun k -> k >= 1 && k < n)
        |> Seq.map (truncate r)))
    ~pp:Serve.Proto.pp_request
    (fun rng ->
      let n = 1 + Numerics.Rng.int rng max_faults in
      let ps = Array.init n (fun _ -> Numerics.Rng.float rng) in
      let qs =
        Array.init n (fun _ -> Numerics.Rng.float rng /. float_of_int n)
      in
      let u = { Serve.Proto.ps; qs } in
      let id = Printf.sprintf "r%d" (Numerics.Rng.int rng 1_000_000) in
      let channels = 1 + Numerics.Rng.int rng 8 in
      let required = 1 + Numerics.Rng.int rng channels in
      let verb =
        match Numerics.Rng.int rng 4 with
        | 0 -> Serve.Proto.Moments
        | 1 -> Serve.Proto.Risk_ratio { channels; required }
        | 2 ->
            let bins =
              if Numerics.Rng.int rng 3 = 0 then 0
              else 2 + Numerics.Rng.int rng 511
            in
            Serve.Proto.Pfd_dist { channels; required; bins }
        | _ ->
            Serve.Proto.Fleet_mission
              {
                plants = 1 + Numerics.Rng.int rng 64;
                demands_per_plant = 1 + Numerics.Rng.int rng 10_000;
                mission_demands = 1 + Numerics.Rng.int rng 1_000_000;
                salt = Numerics.Rng.int rng 4096;
                shards = 1 + Numerics.Rng.int rng 16;
                space = 16 + Numerics.Rng.int rng 4096;
              }
      in
      { Serve.Proto.id; u; verb })

(* ---- differential-oracle generators (lib/check) ---- *)

let arch_eq a b =
  Core.Voting.channels a = Core.Voting.channels b
  && Core.Voting.required a = Core.Voting.required b

(* Random N-of-M architectures (including the paper's 1-out-of-2 and
   2-out-of-3 as ordinary draws). Shrinking proposes the paper's
   1-out-of-2 first, then single-step reductions of N and M, so a
   failing architecture property lands on the smallest voted system that
   still fails — ideally the configuration the paper analyses. *)
let voting_arch ?(max_channels = 4) () =
  if max_channels < 1 then
    invalid_arg "Prop.voting_arch: max_channels must be >= 1";
  make
    ~shrink:(fun arch ->
      if arch_eq arch Core.Voting.one_out_of_two then Seq.empty
      else
        let channels = Core.Voting.channels arch in
        let required = Core.Voting.required arch in
        List.to_seq
          ([ Core.Voting.one_out_of_two ]
          @ (if channels > 1 then
               [
                 Core.Voting.create ~channels:(channels - 1)
                   ~required:(min required (channels - 1));
               ]
             else [])
          @
          if required > 1 then
            [ Core.Voting.create ~channels ~required:(required - 1) ]
          else [])
        |> Seq.filter (fun c -> not (arch_eq c arch)))
    ~pp:Core.Voting.pp
    (fun rng ->
      let channels = 1 + Numerics.Rng.int rng max_channels in
      let required = 1 + Numerics.Rng.int rng channels in
      Core.Voting.create ~channels ~required)

(* Plain quorum adjudicators, shrinking toward the paper's OR
   adjudicator (required = 1), consistent with {!voting_arch}'s
   1-out-of-2 target. For full calculus terms see {!adjudicator_term}. *)
let adjudicator ?(max_required = 4) () =
  if max_required < 1 then
    invalid_arg "Prop.adjudicator: max_required must be >= 1";
  make
    ~shrink:(fun adj ->
      shrink_int_toward 1 (Core.Voting.policy_min_channels adj)
      |> Seq.map (fun required -> Core.Voting.vote ~required))
    ~pp:Core.Voting.pp_policy
    (fun rng ->
      Core.Voting.vote ~required:(1 + Numerics.Rng.int rng max_required))

(* Adjudicator calculus terms: leaves are [Unit] and quorum votes,
   internal nodes [compose]/[fallback], nested up to [max_depth].
   Greedy shrinking proposes the paper's OR vote first, then each
   immediate subterm, then single-step quorum reductions — so a failing
   algebraic property lands on [vote ~required:1] or the smallest
   combinator that still breaks it. *)
let adjudicator_term ?(max_depth = 3) ?(max_required = 4) () =
  if max_depth < 0 then
    invalid_arg "Prop.adjudicator_term: max_depth must be >= 0";
  if max_required < 1 then
    invalid_arg "Prop.adjudicator_term: max_required must be >= 1";
  let leaf rng =
    if Numerics.Rng.int rng 4 = 0 then Core.Voting.Unit
    else Core.Voting.vote ~required:(1 + Numerics.Rng.int rng max_required)
  in
  let rec gen_term rng depth =
    if depth <= 0 then leaf rng
    else
      match Numerics.Rng.int rng 4 with
      | 0 | 1 -> leaf rng
      | 2 ->
          Core.Voting.compose
            (gen_term rng (depth - 1))
            (gen_term rng (depth - 1))
      | _ ->
          Core.Voting.fallback
            (gen_term rng (depth - 1))
            (gen_term rng (depth - 1))
  in
  let shrink_term t =
    match t with
    | Core.Voting.Vote 1 -> Seq.empty
    | Core.Voting.Vote r ->
        shrink_int_toward 1 r
        |> Seq.map (fun required -> Core.Voting.vote ~required)
    | Core.Voting.Unit -> Seq.return (Core.Voting.vote ~required:1)
    | Core.Voting.Compose (a, b) | Core.Voting.Fallback (a, b) ->
        List.to_seq [ Core.Voting.vote ~required:1; a; b ]
  in
  make ~shrink:shrink_term ~pp:Core.Voting.pp_policy (fun rng ->
      gen_term rng max_depth)

(* A channel output or an adjudicated verdict, both
   [Core.Voting.decision]s. *)
let pp_decision ppf d =
  Format.pp_print_string ppf
    (match d with
    | Core.Voting.Shutdown -> "shutdown"
    | Core.Voting.No_action -> "no-action"
    | Core.Voting.Abstain -> "abstain")

let decision = Alcotest.testable pp_decision Core.Voting.equal_decision

(* Channel output vectors, abstention-bearing by default. Shrinks by
   dropping the last output, then demoting the first Abstain to
   No_action and the first No_action to Shutdown — toward the shortest,
   most-binary counterexample. *)
let channel_outputs ?(max_channels = 6) ?(abstaining = true) () =
  if max_channels < 1 then
    invalid_arg "Prop.channel_outputs: max_channels must be >= 1";
  let demote = function
    | Core.Voting.Abstain -> Some Core.Voting.No_action
    | Core.Voting.No_action -> Some Core.Voting.Shutdown
    | Core.Voting.Shutdown -> None
  in
  let rec demote_first = function
    | [] -> None
    | o :: rest -> (
        match demote o with
        | Some o' -> Some (o' :: rest)
        | None -> Option.map (fun r -> o :: r) (demote_first rest))
  in
  make
    ~shrink:(fun outs ->
      let n = List.length outs in
      Seq.append
        (if n > 1 then Seq.return (List.filteri (fun i _ -> i < n - 1) outs)
         else Seq.empty)
        (match demote_first outs with
        | Some outs' -> Seq.return outs'
        | None -> Seq.empty))
    ~pp:(fun ppf outs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_decision)
        outs)
    (fun rng ->
      let n = 1 + Numerics.Rng.int rng max_channels in
      List.init n (fun _ ->
          match Numerics.Rng.int rng (if abstaining then 3 else 2) with
          | 0 -> Core.Voting.Shutdown
          | 1 -> Core.Voting.No_action
          | _ -> Core.Voting.Abstain))

(* Paired universe/demand-space scenario for the differential oracle
   registry: regions disjoint by construction, so the universe
   abstraction is exact. Shrinks the architecture toward 1-out-of-2
   first, then drops trailing faults (a subset of disjoint regions stays
   disjoint), rebuilding through [Check.Scenario.create] so every shrunk
   candidate is still a valid scenario. *)
let scenario ?replications () =
  let arch_gen = voting_arch () in
  let drop_faults s k =
    let sp = Check.Scenario.space s in
    let faults =
      Array.init k (fun i ->
          ( Demandspace.Space.region sp i,
            Demandspace.Space.introduction_prob sp i ))
    in
    Check.Scenario.create
      ~arch:(Check.Scenario.arch s)
      ~space:
        (Demandspace.Space.create
           ~profile:(Demandspace.Space.profile sp)
           ~faults)
      ~sim_seed:(Check.Scenario.sim_seed s)
      ~replications:(Check.Scenario.replications s)
  in
  make
    ~shrink:(fun s ->
      let with_arch arch =
        Check.Scenario.create ~arch
          ~space:(Check.Scenario.space s)
          ~sim_seed:(Check.Scenario.sim_seed s)
          ~replications:(Check.Scenario.replications s)
      in
      let n = Demandspace.Space.fault_count (Check.Scenario.space s) in
      Seq.append
        (Seq.map with_arch (arch_gen.shrink (Check.Scenario.arch s)))
        (List.to_seq [ (n + 1) / 2; n - 1 ]
        |> Seq.filter (fun k -> k >= 1 && k < n)
        |> Seq.map (drop_faults s)))
    ~pp:Check.Scenario.pp
    (fun rng -> Check.Scenario.generate ?replications rng)

(* ---- byte-level mutation of text inputs ---- *)

(* One edit of a byte string. Positions are reduced modulo the current
   length (plus one for [Insert]), so every edit applies to any string
   and a shrunk edit list stays meaningful. *)
type edit =
  | Replace of int * char
  | Insert of int * char
  | Delete of int
  | Truncate of int

type mutant = { source : int * int; edits : edit list }

let apply_edit s edit =
  let n = String.length s in
  match edit with
  | Replace (i, c) when n > 0 ->
      let b = Bytes.of_string s in
      Bytes.set b (i mod n) c;
      Bytes.to_string b
  | Insert (i, c) ->
      let i = i mod (n + 1) in
      String.concat "" [ String.sub s 0 i; String.make 1 c; String.sub s i (n - i) ]
  | Delete i when n > 0 ->
      let i = i mod n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | Truncate i -> String.sub s 0 (i mod (n + 1))
  | Replace _ | Delete _ -> s

let mutate s edits = List.fold_left apply_edit s edits

(* Bytes that steer a JSON parser into its interesting branches
   (structure, escapes, number syntax, literals, whitespace, control
   characters); a quarter of the draws take any byte at all. *)
let json_bytes = "{}[]:,\"\\/ -+.eE0123456789tfnrulsabuxAF\t\n\r\000\031\127"

let edit_gen rng =
  let pos = Numerics.Rng.int rng 1_000_000 in
  let byte () =
    if Numerics.Rng.int rng 4 = 0 then Char.chr (Numerics.Rng.int rng 256)
    else json_bytes.[Numerics.Rng.int rng (String.length json_bytes)]
  in
  match Numerics.Rng.int rng 8 with
  | 0 | 1 | 2 -> Replace (pos, byte ())
  | 3 | 4 -> Insert (pos, byte ())
  | 5 | 6 -> Delete pos
  | _ -> Truncate pos

let pp_edit ppf = function
  | Replace (i, c) -> Format.fprintf ppf "Replace (%d, %C)" i c
  | Insert (i, c) -> Format.fprintf ppf "Insert (%d, %C)" i c
  | Delete i -> Format.fprintf ppf "Delete %d" i
  | Truncate i -> Format.fprintf ppf "Truncate %d" i

(* Mutants of the lines in [corpus], an array of groups: a case picks a
   group, then a line of it, then applies 1..4 edits. Picking
   the group first keeps a few long lines from dominating the cost.
   Shrinking drops one edit at a time, so a failure lands on the fewest
   edits that still break the property; the printed counterexample is
   the mutated line itself. *)
let mutant_line corpus m =
  let g, i = m.source in
  mutate corpus.(g).(i) m.edits

let mutant corpus =
  if Array.length corpus = 0 || Array.exists (fun g -> Array.length g = 0) corpus
  then invalid_arg "Prop.mutant: every corpus group must be non-empty";
  make
    ~shrink:(fun m ->
      let n = List.length m.edits in
      Seq.init n (fun k -> { m with edits = List.filteri (fun j _ -> j <> k) m.edits }))
    ~pp:(fun ppf m ->
      let g, i = m.source in
      Format.fprintf ppf "@[<v>line %d of group %d, edits [@[%a@]]@,mutated: %S@]" i g
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_edit)
        m.edits (mutant_line corpus m))
    (fun rng ->
      let g = Numerics.Rng.int rng (Array.length corpus) in
      let i = Numerics.Rng.int rng (Array.length corpus.(g)) in
      let k = 1 + Numerics.Rng.int rng 4 in
      { source = (g, i); edits = List.init k (fun _ -> edit_gen rng) })

(* ---- runner ---- *)

let run_case f value =
  match f value with
  | () -> None
  | exception exn -> Some (Printexc.to_string exn)

(* Greedy shrink: take the first shrink candidate that still fails,
   repeat from there, give up when none fails or the budget runs out. *)
let rec shrink_loop t f value err budget =
  if budget <= 0 then (value, err)
  else
    let failing =
      Seq.find_map
        (fun v ->
          match run_case f v with Some e -> Some (v, e) | None -> None)
        (t.shrink value)
    in
    match failing with
    | None -> (value, err)
    | Some (v, e) -> shrink_loop t f v e (budget - 1)

(* First failing case (if any), with its value greedily shrunk. Exposed
   separately from {!check} so the harness can be tested itself. *)
let find_counterexample ?(cases = 100) t f =
  if cases < 1 then invalid_arg "Prop.find_counterexample: cases must be >= 1";
  let parent = Numerics.Rng.create ~seed:base_seed in
  let rec search case =
    if case >= cases then None
    else
      let rng = Numerics.Rng.split parent ~index:case in
      let value = t.gen rng in
      match run_case f value with
      | None -> search (case + 1)
      | Some err ->
          let value, err = shrink_loop t f value err 500 in
          Some (case, value, err)
  in
  search 0

let check ?cases name t f =
  match find_counterexample ?cases t f with
  | None -> ()
  | Some (case, value, err) ->
      Alcotest.failf
        "property %S: case %d failed; replay with PROP_SEED=%d@\n\
         counterexample (shrunk): %a@\n\
         %s"
        name case base_seed t.pp value err

(* ---- float agreement ---- *)

(* The SNIPPETS.md Snippet 1 edge matrix: (case, a, b, agree) rows that
   hold under every tolerance, in both argument orders. *)
let float_edges =
  let tiny = 5e-324 (* the smallest subnormal *) in
  [
    ("nan vs itself", nan, nan, false);
    ("nan vs a number", nan, 1.0, false);
    ("nan vs infinity", nan, infinity, false);
    ("+inf vs itself", infinity, infinity, true);
    ("-inf vs itself", neg_infinity, neg_infinity, true);
    ("+inf vs max_float", infinity, Float.max_float, false);
    ("-inf vs -max_float", neg_infinity, -.Float.max_float, false);
    ("+inf vs -inf", infinity, neg_infinity, false);
    ("+0 vs -0", 0.0, -0.0, true);
    ("smallest subnormal vs itself", tiny, tiny, true);
    ("-max_float vs max_float", -.Float.max_float, Float.max_float, false);
  ]

(* The one float assertion of the test suites: [Stats.approx_eq] with
   no relative slack, so NaN equals nothing (assert NaN with
   [Float.is_nan]), an infinity equals only the same-signed infinity and
   +0 equals -0 — the policy of the oracle comparator
   [Check.Compare.approx] too. *)
let check_close ?(eps = 1e-12) msg expected actual =
  Alcotest.check
    (Alcotest.testable
       (fun ppf x -> Format.fprintf ppf "%.17g" x)
       (Numerics.Stats.approx_eq ~rel:0.0 ~abs:eps))
    msg expected actual
