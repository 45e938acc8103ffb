(* R10 negative: every shard draws from the substream it is passed. *)

let good_substream rng =
  Exec.map_shards_rng rng ~shards:4 ~range:4 ~f:(fun ~lo:_ ~len:_ rng_k ->
      Numerics.Rng.float rng_k)

let good_slice rng xs =
  Exec.map_shards_rng rng ~shards:4 ~range:(Array.length xs)
    ~f:(fun ~lo ~len rng_k ->
      Array.init len (fun i ->
          xs.(lo + i) +. Numerics.Rng.uniform rng_k ~lo:0.0 ~hi:1.0))
