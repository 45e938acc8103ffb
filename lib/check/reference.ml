(* Reference evaluators and agreement helpers shared by the registry
   oracles and the test suites, so every harness judges a rewrite
   against the same reference. *)

open Core.Voting

(* The per-demand path the compiled verdict bitsets of
   [Simulator.Protection] replaced: one channel output per demand, read
   off the version's failure set and the self-check set, adjudicated as
   a list. A demand is, by definition, a plant state requiring
   intervention; a correct channel commands shutdown. *)
let respond channel demand =
  if Demandspace.Version.fails_on (Simulator.Channel.version channel) demand
  then
    match Simulator.Channel.self_check channel with
    | Some s when Numerics.Bitset.mem s (Demandspace.Demand.to_int demand) ->
        Abstain
    | Some _ | None -> No_action
  else Shutdown

let combine policy outputs =
  (match outputs with
  | [] -> invalid_arg "Reference.combine: no channel outputs"
  | _ :: _ -> ());
  let shutdowns, no_actions, abstains =
    List.fold_left
      (fun (s, na, ab) o ->
        match o with
        | Shutdown -> (s + 1, na, ab)
        | No_action -> (s, na + 1, ab)
        | Abstain -> (s, na, ab + 1))
      (0, 0, 0) outputs
  in
  if policy_min_channels policy > shutdowns + no_actions + abstains then
    invalid_arg "Reference.combine: more votes required than channels";
  decide policy ~shutdowns ~no_actions ~abstains

let system_fails policy outputs =
  not (equal_decision (combine policy outputs) Shutdown)

(* The seed's adjudicator, reimplemented verbatim (polymorphic equality,
   double traversal and all) as the reference the calculus must
   bit-match on its legacy domain. *)
let legacy_combine ~required outputs =
  let shutdowns = List.length (List.filter (fun o -> o = Shutdown) outputs) in
  if shutdowns >= required then Shutdown else No_action

(* Tolerance for the incremental-vs-naive gradient agreement: the two
   paths evaluate the same closed form but associate the compensated
   log-sums differently (per-index Kahan sums vs shared prefix/suffix
   arrays), so coordinates agree to rounding, not bitwise. The bound
   1e-9 * (1 + ||grad_naive||_inf) is ~7 orders of magnitude above the
   worst drift ever observed (~1e-14 relative) while still catching any
   real formula divergence — see EXPERIMENTS.md "ulp-tolerance
   policy". *)
let gradient_tol naive =
  let inf_norm =
    Array.fold_left
      (fun acc d -> if Float.is_nan d then acc else Float.max acc (Float.abs d))
      0.0 naive
  in
  1e-9 *. (1.0 +. inf_norm)

let gradient_gap fast naive =
  let gap = ref 0.0 in
  Array.iteri
    (fun i f ->
      (* both NaN (the all-zero universe, where the ratio is 0/0) is
         agreement; NaN on one side only is divergence *)
      let d =
        if Float.is_nan f && Float.is_nan naive.(i) then 0.0
        else Float.abs (f -. naive.(i))
      in
      gap := Float.max !gap d)
    fast;
  !gap

(* ---- reference kernels of the incremental rewrites ---- *)

(* The historical allocating doubling pass, retained verbatim as the
   reference side of the fast-vs-legacy differential oracle: a fresh
   2m-point buffer pair and two Array.sub per fault, finishing through
   the of_mass list pipeline. *)
let convolve_naive ~probs ~values =
  let xs = ref [| 0.0 |] and ws = ref [| 1.0 |] in
  for i = 0 to Array.length probs - 1 do
    let p = probs.(i) and q = values.(i) in
    if p > 0.0 then begin
      let old_xs = !xs and old_ws = !ws in
      let m = Array.length old_xs in
      let nxs = Array.make (2 * m) 0.0 and nws = Array.make (2 * m) 0.0 in
      (* fused merge of (old, weight (1-p)) with (old + q, weight p) *)
      let a = ref 0 and b = ref 0 and out = ref 0 in
      let push x w =
        if !out > 0 && nxs.(!out - 1) = x then nws.(!out - 1) <- nws.(!out - 1) +. w
        else begin
          nxs.(!out) <- x;
          nws.(!out) <- w;
          incr out
        end
      in
      while !a < m || !b < m do
        let xa = if !a < m then old_xs.(!a) else infinity in
        let xb = if !b < m then old_xs.(!b) +. q else infinity in
        if xa <= xb then begin
          push xa (old_ws.(!a) *. (1.0 -. p));
          incr a
        end
        else begin
          push xb (old_ws.(!b) *. p);
          incr b
        end
      done;
      xs := Array.sub nxs 0 !out;
      ws := Array.sub nws 0 !out
    end
  done;
  (!xs, !ws)

let exact_of_vectors_naive ~probs ~values () =
  Core.Pfd_dist.validate_exact ~what:"Reference.exact_of_vectors_naive" ~probs
    ~values;
  let xs, ws = convolve_naive ~probs ~values in
  let pairs = Array.to_list (Array.map2 (fun x w -> (x, w)) xs ws) in
  Core.Pfd_dist.of_mass pairs

(* The historical per-fault grid pass: one two-tap dense sweep per
   fault, in index order, on the same grid as the fast path, finishing
   through the of_mass list pipeline. *)
let grid_of_vectors_naive ~probs ~values ~bins () =
  let n = Array.length probs in
  let { Core.Pfd_dist.step; shifts; len } =
    Core.Pfd_dist.grid_layout ~what:"Reference.grid_of_vectors_naive" ~probs
      ~values ~bins
  in
  let dist = Array.make len 0.0 in
  dist.(0) <- 1.0;
  let top = ref 0 in
  for i = 0 to n - 1 do
    let p = probs.(i) and shift = shifts.(i) in
    (* a zero shift is a region too small for the grid: its mass folds
       into "no change"; the caller can check the induced mean error via
       [mean]. *)
    if p > 0.0 && shift > 0 then begin
      top := !top + shift;
      for j = !top downto 0 do
        let keep = dist.(j) *. (1.0 -. p) in
        let arrive = if j >= shift then dist.(j - shift) *. p else 0.0 in
        dist.(j) <- keep +. arrive
      done
    end
  done;
  let pairs = ref [] in
  for j = !top downto 0 do
    if dist.(j) > 0.0 then pairs := (float_of_int j *. step, dist.(j)) :: !pairs
  done;
  Core.Pfd_dist.of_mass !pairs

(* The O(n^2) sensitivity paths: each partial an independent O(n) Kahan
   sum, the anchor for the O(n) prefix/suffix rewrite. *)
let risk_ratio_gradient_naive ps =
  Array.init (Array.length ps) (Core.Sensitivity.risk_ratio_partial ps)

let risk_ratio_k_derivative_naive ~b ~k =
  let ps = Array.map (fun bi -> k *. bi) b in
  Numerics.Kahan.sum_over (Array.length b) (fun i ->
      b.(i) *. Core.Sensitivity.risk_ratio_partial ps i)
