(* Deterministic sharded execution.

   The repo's parallelism contract: every parallel computation is split
   into a *fixed* number of shards, each seeded from the parent RNG with
   [Rng.split ~index:shard], and shard results are merged in shard
   order. Output is therefore a pure function of (seed, shards) — the
   domain count only decides how many shards run concurrently, never
   what they compute. domains=1 and domains=N are byte-identical. *)

module Pool = Pool

(* Process-default shard count. A fixed constant (not hardware-derived!)
   so that default outputs are reproducible across machines; the CLI
   [--shards] flag and [set_default_shards] override it, which changes
   outputs deterministically. *)
let default_shards_value = 16
let default_shards_ref = ref default_shards_value
let default_shards () = !default_shards_ref

let set_default_shards n =
  if n < 1 then invalid_arg "Exec.set_default_shards: shards must be >= 1";
  default_shards_ref := n

let shard_bounds ~range ~shards =
  if shards < 1 then invalid_arg "Exec.shard_bounds: shards must be >= 1";
  if range < 0 then invalid_arg "Exec.shard_bounds: negative range";
  let base = range / shards and extra = range mod shards in
  Array.init shards (fun k ->
      let lo = (k * base) + min k extra in
      let len = base + if k < extra then 1 else 0 in
      (lo, len))

(* The parent is split in the caller, in index order, so its draws do not
   depend on the pool; only the seeds cross domains. Each generator is
   built on the worker that drives it, so no two shards' generator states
   are allocated side by side by the caller. Each shard runs under
   [Obs.Trace.with_shard k], so trace spans from parallel regions stay
   well-nested per shard. *)
let map_shards_rng ?pool rng ~shards ~range ~f =
  let bounds = shard_bounds ~range ~shards in
  let seeds =
    Array.init shards (fun k -> Numerics.Rng.split_seed rng ~index:k)
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Pool.run pool ~n:shards (fun k ->
      Obs.Trace.with_shard k (fun () ->
          let lo, len = bounds.(k) in
          f ~lo ~len (Numerics.Rng.create ~seed:seeds.(k))))
