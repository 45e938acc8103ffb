(* Batch dispatch onto an [Exec.Pool].

   The dispatcher runs a drained batch, in arrival order, as one pool
   batch; slot i of the result answers request i. [Engine.eval] is a
   pure function of (seed, request) evaluated wholly on whichever domain
   hosts it, so batch composition and worker count are invisible in the
   response bytes.

   Telemetry stays on: the kernels' gauge, histogram and run-log writes
   inside a pool task are replayed by the pool in request order at join
   (lib/obs Capture), so they neither race nor depend on the worker
   count. The server observes its own instruments between batches. *)

type t = { pool : Exec.Pool.t; seed : int }

type result = { line : string; elapsed_ns : int64 }

let create ~pool ~seed = { pool; seed }

let seed t = t.seed
let workers t = Exec.Pool.size t.pool

let run_batch t (requests : Proto.request array) =
  Exec.Pool.run t.pool ~n:(Array.length requests) (fun i ->
      let line, elapsed_ns =
        Obs.Clock.timed (fun () -> Engine.eval ~seed:t.seed requests.(i))
      in
      { line; elapsed_ns })
