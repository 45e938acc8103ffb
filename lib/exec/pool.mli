(** Domain-based worker pool (OCaml 5 multicore).

    A pool of [domains] execution contexts: [domains - 1] spawned worker
    domains plus the calling domain, which participates while a batch is
    running. A pool of size 1 spawns nothing and runs every task inline,
    so results are trivially identical to direct sequential execution —
    the anchor of the repo's determinism contract (see {!Exec}).

    This module is the only sanctioned home of [Domain.spawn] /
    [Domain.join] (divlint rule R8 [domain-containment]). *)

type t
(** A pool; reusable across many {!run} batches. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of the given size (>= 1). Without
    [domains], the size is the [DIVREL_DOMAINS] environment variable when
    set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val size : t -> int
(** Number of execution contexts (including the caller). *)

val run : t -> n:int -> (int -> 'a) -> 'a array
(** [run t ~n f] evaluates [f 0 .. f (n-1)], possibly concurrently, and
    returns the results in index order. Tasks must depend only on their
    index, never on placement or completion order. If tasks raise, the
    exception of the lowest such index is re-raised after all tasks
    finish. Blocks until the whole batch is done. Each task is reported
    done under the pool lock, so everything a task wrote (its results,
    its domain's RNG draw count) is visible to the caller once [run]
    returns.

    Telemetry: while metrics or a run log are on, a multi-domain batch
    runs each task under its own {!Obs.Capture}, and the calling domain
    replays the tasks' gauge, histogram and run-log effects in index
    order (a task's prefix as soon as every earlier task has finished),
    those of a task that raised included. So telemetry is the same at
    any domain count, and tasks may record freely. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Running batches must
    have completed. *)

val auto_domains : unit -> int
(** The size {!create} and {!default} use when none is given:
    [DIVREL_DOMAINS] if set, else [Domain.recommended_domain_count ()]. *)

val default : unit -> t
(** The lazily-created process-wide pool, sized by {!auto_domains} or a
    preceding {!set_default_domains}. Main-domain use only. *)

val set_default_domains : int -> unit
(** Resize the default pool (shuts down a previously created one). Wired
    to the [--domains] CLI flags. Main-domain use only. *)
