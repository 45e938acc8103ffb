(* R11 negative: the sanctioned merge patterns. *)

(* Per-shard values come back in shard order and are folded at join on
   the calling domain — the callback itself stays pure. *)
let good_index_order rng xs =
  Exec.map_shards_rng rng ~shards:4 ~range:(Array.length xs)
    ~f:(fun ~lo ~len _rng_k ->
      let acc = ref 0.0 in
      for i = lo to lo + len - 1 do
        acc := !acc +. xs.(i)
      done;
      !acc)
  |> Array.fold_left max neg_infinity

(* Disjoint indexed writes into a preallocated output buffer: each shard
   owns slot k, so completion order cannot change the result. *)
let good_slices n =
  let out = Array.make n 0.0 in
  Exec.map_shards ~shards:4 ~f:(fun k -> out.(k) <- float_of_int k) ();
  out
