(* Line protocol of the assessment service: one JSON object per line,
   rendered and parsed exclusively through Obs.Json so the daemon, the
   one-shot CLI and every test share a single audited serializer. A
   request names a verb and carries the whole scenario inline (universe
   parameter vectors plus verb-specific knobs), which is what makes
   every response a pure function of (seed, request). *)

type universe_spec = { ps : float array; qs : float array }

type verb =
  | Moments
  | Risk_ratio of { channels : int; required : int }
  | Pfd_dist of { channels : int; required : int; bins : int }
  | Fleet_mission of {
      plants : int;
      demands_per_plant : int;
      mission_demands : int;
      salt : int;
      shards : int;
      space : int;
    }

type request = { id : string; u : universe_spec; verb : verb }
type admin = Stats | Shutdown
type line = Work of request | Admin of { id : string; verb : admin }

(* Hard protocol limits: a request that violates them is answered with
   an error line and never admitted, so a single client cannot buy an
   unbounded evaluation. *)
let max_faults = 1024
let max_channels = 16
let max_bins = 16384
let max_plants = 4096
let max_demands = 1_000_000
let max_mission = 1_000_000_000
let max_salt = 1 lsl 30
let max_shards = 64
let min_space = 16
let max_space = 65536
let max_id_len = 128

let verb_name r =
  match r.verb with
  | Moments -> "moments"
  | Risk_ratio _ -> "risk-ratio"
  | Pfd_dist _ -> "pfd-dist"
  | Fleet_mission _ -> "fleet-mission"

let admin_name = function Stats -> "stats" | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_floats a =
  Obs.Json.List (Array.to_list (Array.map (fun f -> Obs.Json.Float f) a))

let render_request r =
  let base =
    [
      ("id", Obs.Json.String r.id);
      ("verb", Obs.Json.String (verb_name r));
      ("p", json_of_floats r.u.ps);
      ("q", json_of_floats r.u.qs);
    ]
  in
  let extra =
    match r.verb with
    | Moments -> []
    | Risk_ratio { channels; required } ->
        [
          ("channels", Obs.Json.Int channels);
          ("required", Obs.Json.Int required);
        ]
    | Pfd_dist { channels; required; bins } ->
        [
          ("channels", Obs.Json.Int channels);
          ("required", Obs.Json.Int required);
          ("bins", Obs.Json.Int bins);
        ]
    | Fleet_mission
        { plants; demands_per_plant; mission_demands; salt; shards; space } ->
        [
          ("plants", Obs.Json.Int plants);
          ("demands", Obs.Json.Int demands_per_plant);
          ("mission", Obs.Json.Int mission_demands);
          ("salt", Obs.Json.Int salt);
          ("shards", Obs.Json.Int shards);
          ("space", Obs.Json.Int space);
        ]
  in
  Obs.Json.render (Obs.Json.Obj (base @ extra))

let render_admin ~id verb =
  Obs.Json.render
    (Obs.Json.Obj
       [
         ("id", Obs.Json.String id);
         ("verb", Obs.Json.String (admin_name verb));
       ])

(* ------------------------------------------------------------------ *)
(* Parsing and validation                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let field name json conv =
  match Option.bind (Obs.Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let int_field name json lo hi =
  let* v = field name json Obs.Json.to_int in
  if v < lo || v > hi then
    Error (Printf.sprintf "field %S out of range [%d, %d]" name lo hi)
  else Ok v

let float_array name json =
  let* items = field name json Obs.Json.to_list in
  let n = List.length items in
  if n = 0 then Error (Printf.sprintf "field %S is empty" name)
  else if n > max_faults then
    Error (Printf.sprintf "field %S exceeds %d faults" name max_faults)
  else
    let a = Array.make n 0.0 in
    let rec fill i = function
      | [] -> Ok a
      | item :: rest -> (
          match Obs.Json.to_float item with
          | Some f when Float.is_finite f ->
              a.(i) <- f;
              fill (i + 1) rest
          | _ -> Error (Printf.sprintf "field %S: non-finite entry" name))
    in
    fill 0 items

let universe_of json =
  let* ps = float_array "p" json in
  let* qs = float_array "q" json in
  if Array.length ps <> Array.length qs then
    Error "fields \"p\" and \"q\" have different lengths"
  else if Array.exists (fun p -> not (p >= 0.0 && p <= 1.0)) ps then
    Error "field \"p\": probability outside [0, 1]"
  else if Array.exists (fun q -> not (q >= 0.0 && q <= 1.0)) qs then
    Error "field \"q\": region measure outside [0, 1]"
  else Ok { ps; qs }

let arch_of json =
  let* channels = int_field "channels" json 1 max_channels in
  let* required = int_field "required" json 1 channels in
  Ok (channels, required)

let parse_line s =
  let* json =
    match Obs.Json.parse s with
    | Ok j -> Ok j
    | Error e -> Error ("malformed JSON: " ^ e)
  in
  let* id = field "id" json Obs.Json.to_string in
  if id = "" || String.length id > max_id_len then
    Error "field \"id\" must be a non-empty string of at most 128 bytes"
  else
    let* verb = field "verb" json Obs.Json.to_string in
    match verb with
    | "stats" -> Ok (Admin { id; verb = Stats })
    | "shutdown" -> Ok (Admin { id; verb = Shutdown })
    | "moments" ->
        let* u = universe_of json in
        Ok (Work { id; u; verb = Moments })
    | "risk-ratio" ->
        let* u = universe_of json in
        let* channels, required = arch_of json in
        Ok (Work { id; u; verb = Risk_ratio { channels; required } })
    | "pfd-dist" ->
        let* u = universe_of json in
        let* channels, required = arch_of json in
        let* bins = int_field "bins" json 0 max_bins in
        if bins = 1 then Error "field \"bins\" must be 0 (exact) or >= 2"
        else Ok (Work { id; u; verb = Pfd_dist { channels; required; bins } })
    | "fleet-mission" ->
        let* u = universe_of json in
        let* plants = int_field "plants" json 1 max_plants in
        let* demands_per_plant = int_field "demands" json 1 max_demands in
        let* mission_demands = int_field "mission" json 1 max_mission in
        let* salt = int_field "salt" json 0 max_salt in
        let* shards = int_field "shards" json 1 max_shards in
        let* space = int_field "space" json min_space max_space in
        Ok
          (Work
             {
               id;
               u;
               verb =
                 Fleet_mission
                   {
                     plants;
                     demands_per_plant;
                     mission_demands;
                     salt;
                     shards;
                     space;
                   };
             })
    | other -> Error (Printf.sprintf "unknown verb %S" other)

let equal_floats a b =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (Float.equal a.(i) b.(i) && go (i + 1))
  in
  go 0

let equal_request a b =
  String.equal a.id b.id
  && equal_floats a.u.ps b.u.ps
  && equal_floats a.u.qs b.u.qs
  &&
  match (a.verb, b.verb) with
  | Moments, Moments -> true
  | Risk_ratio x, Risk_ratio y ->
      x.channels = y.channels && x.required = y.required
  | Pfd_dist x, Pfd_dist y ->
      x.channels = y.channels && x.required = y.required && x.bins = y.bins
  | Fleet_mission x, Fleet_mission y ->
      x.plants = y.plants
      && x.demands_per_plant = y.demands_per_plant
      && x.mission_demands = y.mission_demands
      && x.salt = y.salt && x.shards = y.shards && x.space = y.space
  | _ -> false

let pp_request ppf r = Format.pp_print_string ppf (render_request r)

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

(* Every line the service receives is answered with exactly one
   response line: a result envelope, a busy rejection, or an error.
   The envelope field order is fixed, so equal responses are equal
   bytes — the unit the byte-identity oracle compares. *)

let ok_line ~id ~verb ~seed ~draws ~body =
  Obs.Json.render
    (Obs.Json.Obj
       [
         ("id", Obs.Json.String id);
         ("ok", Obs.Json.Bool true);
         ("verb", Obs.Json.String verb);
         ("seed", Obs.Json.Int seed);
         ("draws", Obs.Json.Int draws);
         ("body", body);
       ])

let error_line ?id ~error ~detail () =
  Obs.Json.render
    (Obs.Json.Obj
       [
         ( "id",
           match id with Some i -> Obs.Json.String i | None -> Obs.Json.Null
         );
         ("ok", Obs.Json.Bool false);
         ("error", Obs.Json.String error);
         ("detail", Obs.Json.String detail);
       ])

(* Deterministic admission advice: the further past the watermark the
   queue is, the longer the suggested backoff; always at least 1 ms so
   a well-formed retry-after is distinguishable from "retry now". *)
let retry_after_ms ~queue_depth ~capacity =
  1 + (64 * queue_depth / max 1 capacity)

let busy_line ~id ~queue_depth ~capacity =
  Obs.Json.render
    (Obs.Json.Obj
       [
         ("id", Obs.Json.String id);
         ("ok", Obs.Json.Bool false);
         ("error", Obs.Json.String "busy");
         ("queue_depth", Obs.Json.Int queue_depth);
         ("retry_after_ms", Obs.Json.Int (retry_after_ms ~queue_depth ~capacity));
       ])

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

let parse_response s =
  let* json =
    match Obs.Json.parse s with
    | Ok j -> Ok j
    | Error e -> Error ("malformed response JSON: " ^ e)
  in
  let* ok = field "ok" json (function Obs.Json.Bool b -> Some b | _ -> None) in
  let str name = Option.bind (Obs.Json.member name json) Obs.Json.to_string in
  let int name = Option.bind (Obs.Json.member name json) Obs.Json.to_int in
  Ok
    {
      resp_id = str "id";
      resp_ok = ok;
      resp_verb = str "verb";
      resp_seed = int "seed";
      resp_draws = int "draws";
      resp_body = Obs.Json.member "body" json;
      resp_error = str "error";
      resp_detail = str "detail";
      resp_queue_depth = int "queue_depth";
      resp_retry_after_ms = int "retry_after_ms";
    }
