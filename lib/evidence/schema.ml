(* Typed view of the run-log event schema.

   The JSONL run log (Obs.Runlog) is a producer-side artefact: every
   instrumented site appends whatever fields it finds useful. This module
   is the consumer-side contract — the event kinds and required fields
   the proven-in-use assessor relies on (documented in EXPERIMENTS.md,
   "Run-log event schema"). Parsing is deliberately total: a line that is
   not valid JSON, not an object, or an object missing a required field
   of a consumed kind is [Malformed] (counted, never fatal — field
   evidence arrives damaged, and one bad line must not void months of
   operating history); a well-formed event of a kind the assessor does
   not consume is [Skipped] with its kind, so unknown schemas are visible
   in the verdict rather than silently dropped. *)

type sprt_outcome = Accept | Reject | Undecided

type event =
  | Run_start of { target : string; seed : int; shards : int }
  | Run_end of {
      target : string;
      seed : int;
      shards : int;
      rng_draws : int;
      duration_ns : int;
    }
  | Runner_run of {
      demands : int;
      system_failures : int;
      coincident_failures : int;
      rng_draws : int;
      demand_hist : (int * int) list;  (** ascending demand id, count > 0 *)
    }
  | Fleet_plant of {
      plant : int;
      demands : int;
      failures : int;
      true_pfd : float;
    }
  | Fleet_observe of {
      plants : int;
      demands_per_plant : int;
      failures : int;
    }
  | Sprt_decision of {
      decision : sprt_outcome;
      demands : int;
      failures : int;
      log_lr : float;
    }

type parsed =
  | Event of event
  | Skipped of string  (** well-formed event of an unconsumed kind *)
  | Malformed of string  (** diagnostic; the line is counted, not fatal *)

(* ------------------------------------------------------------------ *)
(* Field accessors: values returned directly, failures raised          *)
(* ------------------------------------------------------------------ *)

(* Raised by the accessors with the diagnostic [parse_json] reports and
   caught there once per line, so an accessor allocates nothing unless
   the field is bad. *)
exception Bad_field of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_field msg)) fmt

let field name json =
  match Obs.Json.member name json with
  | Some v -> v
  | None -> bad "missing field %S" name

let int_field name json =
  match field name json with
  | Obs.Json.Int i -> i
  | _ -> bad "field %S is not an integer" name

let float_field name json =
  match field name json with
  | Obs.Json.Float f -> f
  | Obs.Json.Int i -> float_of_int i
  | _ -> bad "field %S is not a number" name

let string_field name json =
  match field name json with
  | Obs.Json.String s -> s
  | _ -> bad "field %S is not a string" name

(* Demand ids index the assessor's histogram array, so an id is bounded
   before it can size an allocation; 2^20 ids is sixteen times the
   largest demand space the serve protocol admits (Serve.Proto.max_space
   = 65536) and 8 MB of counters at most. *)
let max_demand_id = (1 lsl 20) - 1

(* [demand_hist] is sparse: a list of [id, count] pairs. Absent or null
   is treated as empty (events logged before the field existed). *)
let demand_hist_field json =
  match Obs.Json.member "demand_hist" json with
  | None | Some Obs.Json.Null -> []
  | Some (Obs.Json.List items) ->
      List.map
        (function
          | Obs.Json.List [ Obs.Json.Int id; Obs.Json.Int count ]
            when id >= 0 && count > 0 ->
              if id > max_demand_id then
                bad "field \"demand_hist\" id %d exceeds max_demand_id %d" id
                  max_demand_id
              else (id, count)
          | Obs.Json.List [ _; _ ] ->
              bad
                "field \"demand_hist\" entry is not a non-negative [id, \
                 count] pair"
          | _ -> bad "field \"demand_hist\" entry is not a pair")
        items
  | Some _ -> bad "field \"demand_hist\" is not a list"

let parse_kind kind json =
  match kind with
  | "run.start" ->
      let target = string_field "target" json in
      let seed = int_field "seed" json in
      let shards = int_field "shards" json in
      Event (Run_start { target; seed; shards })
  | "run.end" ->
      let target = string_field "target" json in
      let seed = int_field "seed" json in
      let shards = int_field "shards" json in
      let rng_draws = int_field "rng_draws" json in
      let duration_ns = int_field "duration_ns" json in
      Event (Run_end { target; seed; shards; rng_draws; duration_ns })
  | "runner.run" ->
      let demands = int_field "demands" json in
      let system_failures = int_field "system_failures" json in
      let coincident_failures = int_field "coincident_failures" json in
      let rng_draws = int_field "rng_draws" json in
      let demand_hist = demand_hist_field json in
      if demands <= 0 then bad "field \"demands\" must be positive"
      else if system_failures < 0 || system_failures > demands then
        bad "field \"system_failures\" outside [0, demands]"
      else
        Event
          (Runner_run
             {
               demands;
               system_failures;
               coincident_failures;
               rng_draws;
               demand_hist;
             })
  | "fleet.plant" ->
      let plant = int_field "plant" json in
      let demands = int_field "demands" json in
      let failures = int_field "failures" json in
      let true_pfd = float_field "true_pfd" json in
      if plant < 0 then bad "field \"plant\" must be non-negative"
      else if demands <= 0 then bad "field \"demands\" must be positive"
      else if failures < 0 || failures > demands then
        bad "field \"failures\" outside [0, demands]"
      else Event (Fleet_plant { plant; demands; failures; true_pfd })
  | "fleet.observe" ->
      let plants = int_field "plants" json in
      let demands_per_plant = int_field "demands_per_plant" json in
      let failures = int_field "failures" json in
      Event (Fleet_observe { plants; demands_per_plant; failures })
  | "sprt.decision" ->
      let decision = string_field "decision" json in
      let demands = int_field "demands" json in
      let failures = int_field "failures" json in
      let log_lr = float_field "log_lr" json in
      let decision =
        match decision with
        | "accept" -> Accept
        | "reject" -> Reject
        | "undecided" -> Undecided
        | other -> bad "unknown SPRT decision %S" other
      in
      Event (Sprt_decision { decision; demands; failures; log_lr })
  | other -> Skipped other

let parse_json json =
  match json with
  | Obs.Json.Obj _ -> (
      match Obs.Json.member "event" json with
      | None -> Malformed "object has no \"event\" field"
      | Some (Obs.Json.String kind) -> (
          try parse_kind kind json
          with Bad_field msg -> Malformed (Printf.sprintf "event %S: %s" kind msg))
      | Some _ -> Malformed "\"event\" field is not a string")
  | _ -> Malformed "line is not a JSON object"

let parse_line line =
  if String.trim line = "" then Malformed "empty line"
  else
    match Obs.Json.parse line with
    | Ok json -> parse_json json
    | Error msg -> Malformed ("invalid JSON: " ^ msg)
