open Numerics

type cluster = {
  shock_prob : float;
  faults : (float * float * float) array; (* (hi, lo, q) per fault *)
}

type t = { clusters : cluster array }

let check_prob name x =
  if Float.is_nan x || x < 0.0 || x > 1.0 then
    invalid_arg ("Correlated: " ^ name ^ " outside [0, 1]")

let create clusters =
  if Array.length clusters = 0 then invalid_arg "Correlated.create: no clusters";
  Array.iter
    (fun c ->
      check_prob "shock_prob" c.shock_prob;
      if Array.length c.faults = 0 then
        invalid_arg "Correlated.create: empty cluster";
      Array.iter
        (fun (hi, lo, q) ->
          check_prob "hi" hi;
          check_prob "lo" lo;
          check_prob "q" q)
        c.faults)
    clusters;
  { clusters = Array.copy clusters }

let marginal_p ~shock_prob ~hi ~lo = (shock_prob *. hi) +. ((1.0 -. shock_prob) *. lo)

let of_universe_with_shock u ~cluster_size ~shock_prob ~lift =
  (* Partition the universe into clusters; inside each, a "common conceptual
     error" occurring with [shock_prob] lifts every fault's probability by
     the factor [lift], with the quiet-state probability chosen to keep the
     marginal p_i unchanged — so means are comparable with the independent
     model by construction. *)
  if cluster_size <= 0 then
    invalid_arg "Correlated.of_universe_with_shock: cluster_size must be positive";
  check_prob "shock_prob" shock_prob;
  if lift < 1.0 then
    invalid_arg "Correlated.of_universe_with_shock: lift must be >= 1";
  let n = Core.Universe.size u in
  let clusters = ref [] in
  let i = ref 0 in
  while !i < n do
    let members = min cluster_size (n - !i) in
    let faults =
      Array.init members (fun j ->
          let f = Core.Universe.fault u (!i + j) in
          let p = Core.Fault.p f and q = Core.Fault.q f in
          let hi = min 1.0 (lift *. p) in
          let lo =
            if shock_prob >= 1.0 then hi
            else (p -. (shock_prob *. hi)) /. (1.0 -. shock_prob)
          in
          if lo < 0.0 then
            invalid_arg
              "Correlated.of_universe_with_shock: lift too large for the \
               shock probability (marginal not preservable)";
          (hi, lo, q))
    in
    clusters := { shock_prob; faults } :: !clusters;
    i := !i + members
  done;
  create (Array.of_list (List.rev !clusters))

let fault_count t =
  Array.fold_left (fun acc c -> acc + Array.length c.faults) 0 t.clusters

let marginal_universe t =
  let ps = ref [] and qs = ref [] in
  Array.iter
    (fun c ->
      Array.iter
        (fun (hi, lo, q) ->
          ps := marginal_p ~shock_prob:c.shock_prob ~hi ~lo :: !ps;
          qs := q :: !qs)
        c.faults)
    t.clusters;
  Core.Universe.of_arrays
    ~p:(Array.of_list (List.rev !ps))
    ~q:(Array.of_list (List.rev !qs))

let mu1 t = Core.Moments.mu1 (marginal_universe t)
let mu2 t = Core.Moments.mu2 (marginal_universe t)

let var1 t =
  (* Per cluster: Var(sum X_i q_i) with the X_i conditionally independent
     given the shock. Cov(X_i, X_j) = E[X_i X_j] - p_i p_j with
     E[X_i X_j] = w hi_i hi_j + (1-w) lo_i lo_j for i <> j. *)
  Kahan.sum_over (Array.length t.clusters) (fun ci ->
      let c = t.clusters.(ci) in
      let w = c.shock_prob in
      let m = Array.length c.faults in
      let acc = Kahan.create () in
      for i = 0 to m - 1 do
        let hi_i, lo_i, q_i = c.faults.(i) in
        let p_i = marginal_p ~shock_prob:w ~hi:hi_i ~lo:lo_i in
        Kahan.add acc (p_i *. (1.0 -. p_i) *. q_i *. q_i);
        for j = 0 to m - 1 do
          if j <> i then begin
            let hi_j, lo_j, q_j = c.faults.(j) in
            let p_j = marginal_p ~shock_prob:w ~hi:hi_j ~lo:lo_j in
            let e_ij = (w *. hi_i *. hi_j) +. ((1.0 -. w) *. lo_i *. lo_j) in
            Kahan.add acc ((e_ij -. (p_i *. p_j)) *. q_i *. q_j)
          end
        done
      done;
      Kahan.total acc)

let sigma1 t = sqrt (var1 t)

let p_n1_zero t =
  (* Clusters are independent; within a cluster, condition on the shock. *)
  exp
    (Kahan.sum_over (Array.length t.clusters) (fun ci ->
         let c = t.clusters.(ci) in
         let w = c.shock_prob in
         let none probs =
           exp
             (Kahan.sum_over (Array.length c.faults) (fun i ->
                  Float.log1p (-.probs i)))
         in
         let none_hi = none (fun i -> let hi, _, _ = c.faults.(i) in hi) in
         let none_lo = none (fun i -> let _, lo, _ = c.faults.(i) in lo) in
         log ((w *. none_hi) +. ((1.0 -. w) *. none_lo))))

let p_n2_zero t =
  (* Two independent versions; condition on both shock indicators. Given
     the pair (sA, sB) of shock states, faults are independent and fault i
     is common with probability pi(sA) * pi(sB). *)
  exp
    (Kahan.sum_over (Array.length t.clusters) (fun ci ->
         let c = t.clusters.(ci) in
         let w = c.shock_prob in
         let prob_of_state s i =
           let hi, lo, _ = c.faults.(i) in
           if s then hi else lo
         in
         let none_given sa sb =
           exp
             (Kahan.sum_over (Array.length c.faults) (fun i ->
                  Float.log1p (-.(prob_of_state sa i *. prob_of_state sb i))))
         in
         let states = [ (true, w); (false, 1.0 -. w) ] in
         let total = Kahan.create () in
         List.iter
           (fun (sa, wa) ->
             List.iter
               (fun (sb, wb) -> Kahan.add total (wa *. wb *. none_given sa sb))
               states)
           states;
         log (Kahan.total total)))

let p_n1_pos t = 1.0 -. p_n1_zero t
let p_n2_pos t = 1.0 -. p_n2_zero t

let risk_ratio t =
  let denom = p_n1_pos t in
  if Stats.is_zero denom then nan else p_n2_pos t /. denom

let sample_version rng t =
  let present = ref [] in
  let base = ref 0 in
  Array.iter
    (fun c ->
      let shocked = Rng.bool rng ~p:c.shock_prob in
      Array.iteri
        (fun i (hi, lo, _) ->
          let p = if shocked then hi else lo in
          if Rng.bool rng ~p then present := (!base + i) :: !present)
        c.faults;
      base := !base + Array.length c.faults)
    t.clusters;
  List.rev !present

let qs t =
  let out = ref [] in
  Array.iter
    (fun c -> Array.iter (fun (_, _, q) -> out := q :: !out) c.faults)
    t.clusters;
  Array.of_list (List.rev !out)

let sample_pair_pfd rng t =
  let q = qs t in
  let a = sample_version rng t and b = sample_version rng t in
  let pfd_of l = Kahan.sum_list (List.map (fun i -> q.(i)) l) in
  let common = List.filter (fun i -> List.mem i b) a in
  (pfd_of a, pfd_of common)
