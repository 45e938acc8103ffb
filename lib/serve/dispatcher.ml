(* Batch dispatch onto an [Exec.Pool].

   The dispatcher runs a drained batch, in arrival order, as one pool
   batch; slot i of the result answers request i. [Engine.eval] is a
   pure function of (seed, request) evaluated wholly on whichever domain
   hosts it, so batch composition and worker count are invisible in the
   response bytes.

   The global metrics flag is forced off for the duration of the pool
   batch: instruments inside the evaluated kernels would otherwise be
   mutated concurrently from several worker domains, violating the
   single-writer rule gauges and histograms rely on (lib/obs). The
   server observes its own instruments between batches, when every
   worker is parked. *)

type t = { pool : Exec.Pool.t; seed : int }

type result = { line : string; elapsed_ns : int64 }

let create ~pool ~seed = { pool; seed }

let seed t = t.seed
let workers t = Exec.Pool.size t.pool

let run_batch t (requests : Proto.request array) =
  let was_enabled = Obs.Metrics.is_enabled () in
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
    (fun () ->
      Exec.Pool.run t.pool ~n:(Array.length requests) (fun i ->
          let line, elapsed_ns =
            Obs.Clock.timed (fun () -> Engine.eval ~seed:t.seed requests.(i))
          in
          { line; elapsed_ns }))
