module J = Mbr_obs.Json

type verb =
  | Load
  | Perturb
  | Recompose
  | Set_corners
  | Query_metrics
  | Export_trace
  | Telemetry
  | Shutdown

let verb_to_string = function
  | Load -> "load"
  | Perturb -> "perturb"
  | Recompose -> "recompose"
  | Set_corners -> "set-corners"
  | Query_metrics -> "query-metrics"
  | Export_trace -> "export-trace"
  | Telemetry -> "telemetry"
  | Shutdown -> "shutdown"

let all_verbs =
  [
    Load; Perturb; Recompose; Set_corners; Query_metrics; Export_trace;
    Telemetry; Shutdown;
  ]

let verb_of_string s =
  List.find_opt (fun v -> verb_to_string v = s) all_verbs

type request = {
  id : int;
  verb : verb;
  session : string option;
  profile : string option;
  scale : float option;
  seed : int option;
  frac : float option;
  timeout_s : float option;
  path : string option;
  corners : string option;
  recover : int option;
  cursor : int option;
  flight : bool option;
  progress : bool option;
}

let request ?session ?profile ?scale ?seed ?frac ?timeout_s ?path ?corners
    ?recover ?cursor ?flight ?progress ~id verb =
  {
    id;
    verb;
    session;
    profile;
    scale;
    seed;
    frac;
    timeout_s;
    path;
    corners;
    recover;
    cursor;
    flight;
    progress;
  }

type error_code =
  | Invalid_json
  | Bad_request
  | Unknown_verb
  | Unknown_session
  | Session_exists
  | Overloaded
  | Cancelled
  | Shutting_down
  | Internal

let all_codes =
  [
    Invalid_json; Bad_request; Unknown_verb; Unknown_session; Session_exists;
    Overloaded; Cancelled; Shutting_down; Internal;
  ]

let error_code_to_string = function
  | Invalid_json -> "invalid-json"
  | Bad_request -> "bad-request"
  | Unknown_verb -> "unknown-verb"
  | Unknown_session -> "unknown-session"
  | Session_exists -> "session-exists"
  | Overloaded -> "overloaded"
  | Cancelled -> "cancelled"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let error_code_of_string s =
  List.find_opt (fun c -> error_code_to_string c = s) all_codes

type error = { code : error_code; message : string }

type response = { id : int; result : (J.t, error) result }

let ok id data = { id; result = Ok data }

let fail id code message = { id; result = Error { code; message } }

(* ---- codecs ---- *)

let request_to_json (r : request) =
  let opt k f v = Option.map (fun x -> (k, f x)) v in
  J.Obj
    (List.filter_map Fun.id
       [
         Some ("id", J.Num (float_of_int r.id));
         Some ("verb", J.Str (verb_to_string r.verb));
         opt "session" (fun s -> J.Str s) r.session;
         opt "profile" (fun s -> J.Str s) r.profile;
         opt "scale" (fun f -> J.Num f) r.scale;
         opt "seed" (fun i -> J.Num (float_of_int i)) r.seed;
         opt "frac" (fun f -> J.Num f) r.frac;
         opt "timeout_s" (fun f -> J.Num f) r.timeout_s;
         opt "path" (fun s -> J.Str s) r.path;
         opt "corners" (fun s -> J.Str s) r.corners;
         opt "recover" (fun i -> J.Num (float_of_int i)) r.recover;
         opt "cursor" (fun i -> J.Num (float_of_int i)) r.cursor;
         opt "flight" (fun b -> J.Bool b) r.flight;
         opt "progress" (fun b -> J.Bool b) r.progress;
       ])

(* Field readers distinguish "absent" (fine, every param is optional at
   this layer) from "present but ill-typed" (a Bad_request): a client
   that sends {"seed": "7"} should hear about it, not silently run with
   a default seed. *)
exception Reject of error

let reject code fmt =
  Printf.ksprintf (fun message -> raise (Reject { code; message })) fmt

let field name conv j =
  match J.member name j with
  | None -> None
  | Some v -> (
    match conv v with
    | Some x -> Some x
    | None -> reject Bad_request "field %S has the wrong type" name)

let request_of_json j =
  let id =
    match Option.bind (J.member "id" j) J.to_int with
    | Some i when i >= 0 -> i
    | Some _ | None -> -1
  in
  match
    (match j with
    | J.Obj _ -> ()
    | _ -> reject Bad_request "request must be a JSON object");
    (if id < 0 then
       match J.member "id" j with
       | None -> reject Bad_request "missing \"id\""
       | Some _ -> reject Bad_request "\"id\" must be a non-negative integer");
    let verb =
      match field "verb" J.to_str j with
      | None -> reject Bad_request "missing \"verb\""
      | Some s -> (
        match verb_of_string s with
        | Some v -> v
        | None -> reject Unknown_verb "unknown verb %S" s)
    in
    {
      id;
      verb;
      session = field "session" J.to_str j;
      profile = field "profile" J.to_str j;
      scale = field "scale" J.to_float j;
      seed = field "seed" J.to_int j;
      frac = field "frac" J.to_float j;
      timeout_s = field "timeout_s" J.to_float j;
      path = field "path" J.to_str j;
      corners = field "corners" J.to_str j;
      recover = field "recover" J.to_int j;
      cursor = field "cursor" J.to_int j;
      flight = field "flight" J.to_bool j;
      progress = field "progress" J.to_bool j;
    }
  with
  | r -> Ok r
  | exception Reject e -> Error (id, e)

let response_to_json r =
  match r.result with
  | Ok data ->
    J.Obj
      [
        ("id", J.Num (float_of_int r.id)); ("ok", J.Bool true); ("data", data);
      ]
  | Error { code; message } ->
    J.Obj
      [
        ("id", J.Num (float_of_int r.id));
        ("ok", J.Bool false);
        ("error", J.Str (error_code_to_string code));
        ("message", J.Str message);
      ]

let response_of_json j =
  match
    ( Option.bind (J.member "id" j) J.to_int,
      J.member "ok" j,
      J.member "data" j,
      Option.bind (J.member "error" j) J.to_str,
      Option.bind (J.member "message" j) J.to_str )
  with
  | Some id, Some (J.Bool true), Some data, _, _ -> Ok (ok id data)
  | Some id, Some (J.Bool false), _, Some code_s, message -> (
    let message = Option.value message ~default:"" in
    match error_code_of_string code_s with
    | Some code -> Ok (fail id code message)
    | None -> Error (Printf.sprintf "unknown error code %S" code_s))
  | _ -> Error "response is not an mbrd response object"

(* ---- out-of-band events ----

   Event lines share the stream with responses but carry an "event"
   member and no "ok" member, so a client can route on one lookup. *)

type progress_event = {
  pe_id : int;
  pe_stage : string;
  pe_round : int;
  pe_total : int;
  pe_wns : float option;
}

let is_event j = J.member "event" j <> None

let progress_to_json (e : progress_event) =
  J.Obj
    ([
       ("id", J.Num (float_of_int e.pe_id));
       ("event", J.Str "progress");
       ("stage", J.Str e.pe_stage);
       ("round", J.Num (float_of_int e.pe_round));
       ("blocks_total", J.Num (float_of_int e.pe_total));
     ]
    @ match e.pe_wns with None -> [] | Some w -> [ ("wns", J.Num w) ])

let progress_of_json j =
  match
    ( Option.bind (J.member "id" j) J.to_int,
      Option.bind (J.member "event" j) J.to_str,
      Option.bind (J.member "stage" j) J.to_str,
      Option.bind (J.member "round" j) J.to_int,
      Option.bind (J.member "blocks_total" j) J.to_int )
  with
  | Some id, Some "progress", Some stage, Some round, Some total ->
    Ok
      {
        pe_id = id;
        pe_stage = stage;
        pe_round = round;
        pe_total = total;
        pe_wns = Option.bind (J.member "wns" j) J.to_float;
      }
  | _ -> Error "not a progress event"
