(* The only sanctioned time source in the repo (divlint rule R7 rejects
   Unix.gettimeofday / Unix.time / Sys.time everywhere else): a monotonic
   nanosecond clock, so spans and kernel timings are immune to wall-clock
   adjustments. The raw reading comes from bechamel's clock_gettime
   (CLOCK_MONOTONIC) stub, which is [@@noalloc]. *)

let now_ns () = Monotonic_clock.now ()

let elapsed_ns ~since = Int64.sub (now_ns ()) since

let ns_to_us ns = Int64.to_float ns *. 1e-3
let ns_to_ms ns = Int64.to_float ns *. 1e-6
let ns_to_s ns = Int64.to_float ns *. 1e-9

let timed f =
  let t0 = now_ns () in
  let result = f () in
  (result, elapsed_ns ~since:t0)
