(** Line protocol of the assessment service.

    One JSON object per line, in both directions, rendered and parsed
    through {!Obs.Json} so the daemon, the one-shot CLI and the tests
    share a single serializer. A request carries the whole scenario
    inline — universe parameter vectors plus verb-specific knobs — so a
    response is a pure function of (seed, request): no server-side
    session state, hence byte-identical answers for any worker count,
    batching or arrival order. Every line received is answered with
    exactly one line. *)

type universe_spec = { ps : float array; qs : float array }
(** Fault universe as parallel vectors: [ps.(i)] is the probability
    fault [i] is created, [qs.(i)] the measure of its failure region. *)

type verb =
  | Moments  (** Difficulty-function moments and diversity gain. *)
  | Risk_ratio of { channels : int; required : int }
      (** [required]-out-of-[channels] system PFD moments and the risk
          ratio versus a single channel. *)
  | Pfd_dist of { channels : int; required : int; bins : int }
      (** PFD distribution summary; [bins = 0] requests the exact
          enumeration (small universes only), [bins >= 2] the gridded
          distribution. *)
  | Fleet_mission of {
      plants : int;
      demands_per_plant : int;
      mission_demands : int;
      salt : int;
      shards : int;
      space : int;
    }
      (** Simulated fleet deployment and observation followed by the
          closed-form mission survival probability. [salt] selects the
          RNG substream, [shards] the fixed shard count (part of the
          request, so the answer never depends on server defaults),
          [space] the synthetic demand-space size. *)

type request = { id : string; u : universe_spec; verb : verb }
type admin = Stats | Shutdown

type line = Work of request | Admin of { id : string; verb : admin }
(** A parsed inbound line: either an assessment request or an admin
    verb (admin verbs bypass the admission queue). *)

(** {1 Protocol limits}

    Violations are answered with an error line and never admitted. *)

val max_faults : int
val max_channels : int
val max_bins : int
val max_plants : int
val max_demands : int
val max_mission : int
val max_salt : int
val max_shards : int
val min_space : int
val max_space : int
val max_id_len : int

(** {1 Requests} *)

val verb_name : request -> string
(** Wire name of the request's verb ("moments", "risk-ratio",
    "pfd-dist", "fleet-mission"). *)

val render_request : request -> string
(** Canonical single-line rendering (no trailing newline). *)

val render_admin : id:string -> admin -> string
(** Canonical rendering of an admin line. *)

val parse_line : string -> (line, string) result
(** Parse and validate one inbound line. [parse_line (render_request r)]
    yields [Ok (Work r')] with [equal_request r r'] for every request
    within the protocol limits — the codec round-trip property.

    {b Numeric boundary policy} of the ["p"] and ["q"] entries. Tokens
    follow {!Obs.Json.parse}'s number grammar, and each decodes to the
    double [float_of_string] gives, bit for bit:
    - an entry that overflows ([1e999], [-1e999]) is rejected with
      [field "p": non-finite entry] (["q"] likewise); JSON has no NaN
      token, and a NaN rendered by {!render_request} is [null], which is
      rejected the same way;
    - underflow passes through: [1e-400] decodes to [0.0], [-0.0] to
      [-0.0], and both are accepted, as is every subnormal
      ([4.9406564584124654e-324] decodes to the smallest, bit-exact);
    - a mantissa of any length decodes as [float_of_string] reads it
      (past 18 digits the decoder hands the token to it);
    - entries outside \[0, 1\] are then rejected with
      [field "p": probability outside [0, 1]] or
      [field "q": region measure outside [0, 1]];
    - lax tokens keep the parser's reading: [1.] and [01] are [1.0],
      and [.5] is a malformed-JSON error.

    test/test_serve.ml pins each case. *)

val equal_request : request -> request -> bool
(** Structural equality ([Float.equal] per vector entry, so NaN-safe
    and signed-zero-exact). *)

val pp_request : Format.formatter -> request -> unit

(** {1 Responses} *)

val ok_line :
  id:string -> verb:string -> seed:int -> draws:int -> body:Obs.Json.t -> string
(** Success envelope [{"id","ok":true,"verb","seed","draws","body"}] in
    fixed field order — equal responses are equal bytes. *)

val error_line : ?id:string -> error:string -> detail:string -> unit -> string
(** Failure envelope; [id] is [null] when the offending line had none
    recoverable. *)

val retry_after_ms : queue_depth:int -> capacity:int -> int
(** Deterministic backoff advice attached to busy rejections: at least
    1 ms, growing linearly with how far past capacity the queue is. *)

val busy_line : id:string -> queue_depth:int -> capacity:int -> string
(** Admission rejection carrying [queue_depth] and [retry_after_ms]. *)

type response = {
  resp_id : string option;
  resp_ok : bool;
  resp_verb : string option;
  resp_seed : int option;
  resp_draws : int option;
  resp_body : Obs.Json.t option;
  resp_error : string option;
  resp_detail : string option;
  resp_queue_depth : int option;
  resp_retry_after_ms : int option;
}
(** Flattened view of a response line, for clients and tests. *)

val parse_response : string -> (response, string) result
