(* R10 corpus: draws that depend on shard scheduling. *)

let global_stream = Numerics.Rng.create ~seed:42

(* Per-file linting sees nothing wrong here; the hazard appears only when
   a shard callback reaches it. *)
let draw_from_global () = Numerics.Rng.float global_stream

let bad_global () =
  Exec.map_shards ~shards:4 ~f:(fun _k -> draw_from_global ()) ()

let bad_capture rng =
  Exec.map_shards ~shards:4 ~f:(fun _k -> Numerics.Rng.float rng) ()

let bad_suppressed rng =
  Exec.map_shards ~shards:4
    ~f:(fun _k ->
      (* divlint: allow rng-discipline *)
      Numerics.Rng.float rng)
    ()

(* Generators split in the caller and indexed by shard: the pattern
   Exec.map_shards_rng replaced. *)
let bad_caller_split rng =
  let rngs = Array.init 4 (fun index -> Numerics.Rng.split rng ~index) in
  Exec.map_shards ~shards:4 ~f:(fun k -> Numerics.Rng.float rngs.(k)) ()
