(* The four xoshiro lanes live in a 32-byte buffer rather than mutable
   int64 record fields: Bytes.get/set_int64_ne compile to unboxed loads
   and stores, so a draw allocates nothing, where int64 record stores
   box every lane on every draw (~3x slower per draw — measured; the
   draw is the innermost operation of every simulation). The stream is
   bit-identical to the record representation. *)
type t = { st : Bytes.t; mutable draws : int }

(* Process-wide draw total across every generator, for run telemetry.
   The hot loop never touches this atomic: each domain accumulates its
   draws in a domain-local pending counter (one plain int store per
   draw, no shared cache line), and the pending count is merged with a
   single fetch-and-add per flush — [Exec.Pool] flushes every worker at
   task join, and [total_draws] flushes the calling domain, so the
   total is exact at every parallel join point and on every sequential
   read. *)
let total = Atomic.make 0 (* divlint: allow domain-containment *)

(* A domain's pending count is the middle word of its own 17-word block,
   so any 64-byte cache line holding it lies inside the block and no
   other domain writes that line. Bare [ref 0] cells of two domains were
   seen to share a line: `all --seed 42` at 2 domains then took about
   twice the CPU time, depending on the build's heap layout. *)
let pending_slot = 8

let pending : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make ((2 * pending_slot) + 1) 0)

(* Cumulative draws already flushed by this domain. Together with the
   pending counter this gives [local_draws] — an exact per-domain draw
   total that needs no atomic on the draw path and survives flushes, so
   single-domain request handlers (lib/serve) can meter the draws of one
   evaluation as a delta around it. *)
let flushed : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let flush_draws () =
  let p = Domain.DLS.get pending in
  let n = p.(pending_slot) in
  if n <> 0 then begin
    ignore (Atomic.fetch_and_add total n) (* divlint: allow domain-containment *);
    let f = Domain.DLS.get flushed in
    f := !f + n;
    p.(pending_slot) <- 0
  end

let local_draws () =
  !(Domain.DLS.get flushed) + (Domain.DLS.get pending).(pending_slot)

(* splitmix64: used to expand a seed into the xoshiro state, and to derive
   independent substreams. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_lanes s0 s1 s2 s3 =
  let st = Bytes.create 32 in
  Bytes.set_int64_ne st 0 s0;
  Bytes.set_int64_ne st 8 s1;
  Bytes.set_int64_ne st 16 s2;
  Bytes.set_int64_ne st 24 s3;
  { st; draws = 0 }

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  of_lanes s0 s1 s2 s3

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ *)
let next_int64 t =
  t.draws <- t.draws + 1;
  let p = Domain.DLS.get pending in
  p.(pending_slot) <- p.(pending_slot) + 1;
  let st = t.st in
  let open Int64 in
  let s0 = Bytes.get_int64_ne st 0
  and s1 = Bytes.get_int64_ne st 8
  and s2 = Bytes.get_int64_ne st 16
  and s3 = Bytes.get_int64_ne st 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne st 0 s0;
  Bytes.set_int64_ne st 8 s1;
  Bytes.set_int64_ne st 16 s2;
  Bytes.set_int64_ne st 24 s3;
  result

(* Derive an independent substream: hash the parent's next output with the
   index, then expand it through splitmix64 exactly as [create] expands a
   seed. *)
let split_seed t ~index =
  Int64.to_int (next_int64 t) lxor (index * 0x2545F4914F6CDD1D)

let split t ~index = create ~seed:(split_seed t ~index)

let draws t = t.draws

let total_draws () =
  flush_draws ();
  Atomic.get total (* divlint: allow domain-containment *)

let float t =
  (* 53 high bits -> uniform in [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling for an unbiased result. *)
  let bound64 = Int64.of_int bound in
  let rec loop () =
    let r = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then loop ()
    else Int64.to_int v
  in
  loop ()

let bool t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
