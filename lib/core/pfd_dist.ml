open Numerics

type t = { xs : float array; ws : float array; cum : float array }

let reject_nan ~what x w =
  if Float.is_nan x then invalid_arg (what ^ ": NaN support point");
  if Float.is_nan w then invalid_arg (what ^ ": NaN mass")

(* Shared finalisation: the first [len] entries of [xs]/[ws] hold a
   support sorted strictly increasing once nonpositive-mass points are
   dropped. Normalisation (Kahan total over the kept masses, in order,
   then per-point division) and the CDF are computed exactly as the
   historical of_mass pipeline did, so a distribution built here is
   bit-identical to routing the same points through [of_mass] — that
   equivalence is what lets the convolvers skip the list round-trip and
   sort without perturbing any golden pin. *)
let of_sorted_len ~what xs ws len =
  let kept = ref 0 in
  for i = 0 to len - 1 do
    reject_nan ~what xs.(i) ws.(i);
    if ws.(i) > 0.0 then incr kept
  done;
  if !kept = 0 then invalid_arg (what ^ ": no positive mass");
  let n = !kept in
  let oxs = Array.make n 0.0 and ows = Array.make n 0.0 in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if ws.(i) > 0.0 then begin
      oxs.(!j) <- xs.(i);
      ows.(!j) <- ws.(i);
      incr j
    end
  done;
  for i = 1 to n - 1 do
    if not (oxs.(i - 1) < oxs.(i)) then
      invalid_arg (what ^ ": support not sorted strictly increasing")
  done;
  let total = Kahan.sum_array ows in
  let ows = Array.map (fun w -> w /. total) ows in
  let cum = Array.make n 0.0 in
  let acc = Kahan.create () in
  Array.iteri
    (fun i w ->
      Kahan.add acc w;
      cum.(i) <- min 1.0 (Kahan.total acc))
    ows;
  cum.(n - 1) <- 1.0;
  { xs = oxs; ws = ows; cum }

let of_sorted_arrays xs ws =
  if Array.length xs <> Array.length ws then
    invalid_arg "Pfd_dist.of_sorted_arrays: length mismatch";
  of_sorted_len ~what:"Pfd_dist.of_sorted_arrays" xs ws (Array.length xs)

let of_mass pairs =
  List.iter (fun (x, w) -> reject_nan ~what:"Pfd_dist.of_mass" x w) pairs;
  let pairs = List.filter (fun (_, w) -> w > 0.0) pairs in
  if pairs = [] then invalid_arg "Pfd_dist.of_mass: no positive mass";
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) pairs in
  (* merge equal support points *)
  let merged =
    List.fold_left
      (fun acc (x, w) ->
        match acc with
        | (x0, w0) :: rest when x = x0 -> (x0, w0 +. w) :: rest
        | _ -> (x, w) :: acc)
      [] sorted
    |> List.rev
  in
  let xs = Array.of_list (List.map fst merged) in
  let ws = Array.of_list (List.map snd merged) in
  of_sorted_len ~what:"Pfd_dist.of_mass" xs ws (Array.length xs)

let support t = Array.copy t.xs
let masses t = Array.copy t.ws
let size t = Array.length t.xs

let mean t = Kahan.dot t.xs t.ws

let variance t =
  let m = mean t in
  Kahan.sum_over (size t) (fun i ->
      let d = t.xs.(i) -. m in
      t.ws.(i) *. d *. d)

let std t = sqrt (variance t)

let cdf t x =
  (* P(X <= x): index of last support point <= x. *)
  let n = size t in
  if n = 0 || x < t.xs.(0) then 0.0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    if x >= t.xs.(n - 1) then 1.0
    else begin
      (* invariant: xs(lo) <= x < xs(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t.xs.(mid) <= x then lo := mid else hi := mid
      done;
      t.cum.(!lo)
    end
  end

let sf t x = 1.0 -. cdf t x

let quantile t alpha =
  if not (alpha >= 0.0 && alpha <= 1.0) then
    invalid_arg "Pfd_dist.quantile: alpha outside [0, 1]";
  (* smallest x with CDF(x) >= alpha *)
  let n = size t in
  let rec search lo hi =
    if lo >= hi then t.xs.(lo)
    else
      let mid = (lo + hi) / 2 in
      if t.cum.(mid) >= alpha then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let prob_positive t = 1.0 -. cdf t 0.0

let sample t rng =
  let u = Rng.float rng in
  let n = size t in
  let rec search lo hi =
    if lo >= hi then t.xs.(lo)
    else
      let mid = (lo + hi) / 2 in
      if t.cum.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let max_exact_faults = 22

(* Boundary policy shared by every convolver entry point: reject. The
   kernels cannot report these inputs themselves: a NaN probability
   drops its fault silently (every comparison against it is false), a
   probability above 1 gives negative "keep" weights that normalisation
   hides, and a negative value indexes the grid below 0. *)
let validate_vectors ~what ~probs ~values =
  if Array.length probs <> Array.length values then
    invalid_arg (what ^ ": length mismatch");
  Array.iteri
    (fun i p ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg
          (Printf.sprintf "%s: probs.(%d) = %g is not a probability in [0, 1]"
             what i p))
    probs;
  Array.iteri
    (fun i q ->
      if not (Float.is_finite q && q >= 0.0) then
        invalid_arg
          (Printf.sprintf "%s: values.(%d) = %g is not finite and >= 0" what i
             q))
    values

let validate_exact ~what ~probs ~values =
  validate_vectors ~what ~probs ~values;
  let n = Array.length probs in
  if n > max_exact_faults then
    invalid_arg
      (Printf.sprintf
         "%s: %d faults exceeds the exact-enumeration limit of %d; use \
          grid_of_vectors"
         what n max_exact_faults)

(* Breadth-first doubling over all faults: dist held as the first [len]
   entries of a ping-pong buffer pair. Each fault's fused merge of
   (old, weight (1-p)) with (old + q, weight p) writes the spare buffer
   and the roles swap — no Array.make / Array.sub per fault; the pair
   only reallocates on the O(log) occasions the support outgrows its
   capacity. The merge arithmetic is unchanged from the historical
   allocating pass, so every produced (value, mass) is bit-identical to
   it (asserted by the fast-vs-legacy differential oracle). Returns
   (xs, ws, len); entries at [len] and beyond are garbage. *)
let convolve ~probs ~values =
  let src_xs = ref (Array.make 16 0.0) and src_ws = ref (Array.make 16 0.0) in
  let dst_xs = ref [||] and dst_ws = ref [||] in
  !src_xs.(0) <- 0.0;
  !src_ws.(0) <- 1.0;
  let len = ref 1 in
  for i = 0 to Array.length probs - 1 do
    let p = probs.(i) and q = values.(i) in
    if p > 0.0 then begin
      let m = !len in
      if Array.length !dst_xs < 2 * m then begin
        let cap = max (2 * m) (2 * Array.length !dst_xs) in
        dst_xs := Array.make cap 0.0;
        dst_ws := Array.make cap 0.0
      end;
      let old_xs = !src_xs and old_ws = !src_ws in
      let nxs = !dst_xs and nws = !dst_ws in
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
      src_xs := nxs;
      src_ws := nws;
      dst_xs := old_xs;
      dst_ws := old_ws;
      len := !out
    end
  done;
  (!src_xs, !src_ws, !len)

(* Exact distribution of sum of independent {0, q_i} variables with
   P(q_i) = probs.(i): one doubling pass — bit-for-bit the legacy
   kernel's values, allocation-free (see convolve) and finalised without
   the of_mass list round-trip and sort (the doubling output is already
   sorted and coalesced). *)
let exact_of_vectors ~probs ~values () =
  let what = "Pfd_dist.exact_of_vectors" in
  validate_exact ~what ~probs ~values;
  let xs, ws, len = convolve ~probs ~values in
  of_sorted_len ~what xs ws len

let exact_single u =
  exact_of_vectors ~probs:(Universe.ps u) ~values:(Universe.qs u) ()

let exact_pair u =
  exact_of_vectors
    ~probs:(Array.map (fun p -> p *. p) (Universe.ps u))
    ~values:(Universe.qs u) ()

let exact_nk u ~channels =
  if channels < 1 then invalid_arg "Pfd_dist.exact_nk: channels < 1";
  exact_of_vectors
    ~probs:(Array.map (fun p -> p ** float_of_int channels) (Universe.ps u))
    ~values:(Universe.qs u) ()

(* Rounding each q_i to the nearest grid multiple can round *up* by as
   much as half a step, so the all-faults subset can land up to n/2
   bins above bins - 1. Size the dense array for that true top: a
   clamped array would silently drop the topmost mass and the
   normalisation would then smear the loss over the whole support,
   biasing the mean far beyond the n*step/2 displacement bound (caught
   by the pfd-exact-vs-grid differential oracle). *)
type grid_layout = { step : float; shifts : int array; len : int }

let grid_layout ~what ~probs ~values ~bins =
  validate_vectors ~what ~probs ~values;
  if bins < 2 then invalid_arg (what ^ ": need at least 2 bins");
  let total = Kahan.sum_array values in
  let step = if total > 0.0 then total /. float_of_int (bins - 1) else 1.0 in
  let shifts =
    Array.init (Array.length probs) (fun i ->
        if probs.(i) > 0.0 then int_of_float (Float.round (values.(i) /. step))
        else 0)
  in
  { step; shifts; len = max bins (1 + Array.fold_left ( + ) 0 shifts) }

(* Collect the surviving (value, mass) pairs of the dense array into
   sorted arrays; finalisation is then bit-identical to the historical
   of_mass route (ascending scan, same Kahan order) without the list. *)
let grid_finalise ~step ~dist ~top =
  let count = ref 0 in
  for j = 0 to top do
    if dist.(j) > 0.0 then incr count
  done;
  let xs = Array.make (max 1 !count) 0.0 and ws = Array.make (max 1 !count) 0.0 in
  let out = ref 0 in
  for j = 0 to top do
    if dist.(j) > 0.0 then begin
      xs.(!out) <- float_of_int j *. step;
      ws.(!out) <- dist.(j);
      incr out
    end
  done;
  of_sorted_len ~what:"Pfd_dist.grid_of_vectors" xs ws !out

(* Flat accumulator for the dense block sweeps: a mutable float record
   field stores unboxed, so the per-bin tap loop allocates nothing (a
   float ref would box every store). *)
type block_acc = { mutable acc : float }

(* One binomial-block dense pass, in place over dist.(0 .. top), where
   the block is [counts] (length k + 1) over multiples of [shift]. The
   scan runs downward, so every tap j - m*shift reads a bin not yet
   written this pass; taps accumulate in ascending m. The tap count is
   hoisted out of the branch: bins at or above k*shift take all k + 1
   taps unconditionally, lower bins take exactly j/shift. *)
let block_pass ~counts ~k ~shift ~dist ~top =
  let a = { acc = 0.0 } in
  let full_lo = k * shift in
  for j = top downto full_lo do
    a.acc <- counts.(0) *. dist.(j);
    for m = 1 to k do
      a.acc <- a.acc +. (counts.(m) *. dist.(j - (m * shift)))
    done;
    dist.(j) <- a.acc
  done;
  for j = full_lo - 1 downto 0 do
    a.acc <- counts.(0) *. dist.(j);
    for m = 1 to j / shift do
      a.acc <- a.acc +. (counts.(m) *. dist.(j - (m * shift)))
    done;
    dist.(j) <- a.acc
  done

(* Grid approximation: round every q_i to a multiple of the grid step and
   convolve on a dense array. The support error per fault is at most half
   a step, so the total displacement is bounded by n * step / 2.

   Faults sharing a shift are coalesced into one binomial block: the
   Poisson-binomial recurrence (Fault_count.poisson_binomial) gives the
   distribution of how many of the k same-shift faults are present, and
   one (k+1)-tap dense pass applies the whole block — the fault loop
   runs distinct-shift passes instead of n. On realistic universes
   (thousands of faults, a few thousand bins) most faults share one of a
   few dozen shifts, so this removes almost all dense sweeps.

   Versus the per-fault reference pass in Check.Reference a block of
   k >= 2 faults associates the per-fault products differently, and the
   blocks run in ascending-shift order rather than index order, so the
   two paths agree to rounding, not bits; a block of one fault reduces
   to exactly the legacy keep/arrive expression, making the whole result
   bit-identical when every shift is unique and already ascending. *)
let grid_of_vectors ~probs ~values ~bins () =
  let n = Array.length probs in
  let { step; shifts; len } =
    grid_layout ~what:"Pfd_dist.grid_of_vectors" ~probs ~values ~bins
  in
  (* binomial blocks: (shift, probs of the faults rounding to it), with
     members in index order (stable sort) so the Poisson-binomial
     recurrence consumes them deterministically *)
  let blocks =
    let tagged = ref [] in
    for i = n - 1 downto 0 do
      if probs.(i) > 0.0 && shifts.(i) > 0 then
        tagged := (shifts.(i), probs.(i)) :: !tagged
    done;
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !tagged
    in
    let rec group = function
      | [] -> []
      | (s, p) :: rest ->
          let same, rest =
            List.partition (fun (s', _) -> s' = s) rest
          in
          (s, Array.of_list (p :: List.map snd same)) :: group rest
    in
    group sorted
  in
  let dist = Array.make len 0.0 in
  dist.(0) <- 1.0;
  let top = ref 0 in
  List.iter
    (fun (shift, block_ps) ->
      let k = Array.length block_ps in
      let counts = Fault_count.poisson_binomial block_ps in
      top := !top + (k * shift);
      block_pass ~counts ~k ~shift ~dist ~top:!top)
    blocks;
  grid_finalise ~step ~dist ~top:!top

let grid_single u ~bins =
  grid_of_vectors ~probs:(Universe.ps u) ~values:(Universe.qs u) ~bins ()

let grid_pair u ~bins =
  grid_of_vectors
    ~probs:(Array.map (fun p -> p *. p) (Universe.ps u))
    ~values:(Universe.qs u) ~bins ()

let single u =
  if Universe.size u <= max_exact_faults then exact_single u
  else grid_single u ~bins:4096

let pair u =
  if Universe.size u <= max_exact_faults then exact_pair u
  else grid_pair u ~bins:4096
