(** Request evaluation: the service's single source of answers.

    [eval ~seed request] is a pure function of its two arguments —
    every response line the daemon, the one-shot CLI and the oracles
    produce for a given (seed, request) pair is byte-identical. The
    evaluation runs wholly inline on the calling domain (the analytic
    verbs are sequential; fleet-mission shards with the count carried
    in the request, never a server default, on a private size-1 pool),
    so a dispatcher may host it on
    any worker domain, in any batch, in any order, without perturbing
    a byte — and the per-request draw count reported in the response
    is the exact {!Numerics.Rng.local_draws} delta around the
    evaluation. *)

val eval : seed:int -> Proto.request -> string
(** The response line (no trailing newline): a success envelope
    ({!Proto.ok_line}) carrying the verb's result body, or an error
    envelope ([error = "unsupported"]) when the request is valid
    protocol but outside the engine's limits (e.g. exact PFD
    enumeration beyond {!Core.Pfd_dist.max_exact_faults} faults, or a
    universe too dense for the requested demand-space size). Never
    raises on a validated request. *)
