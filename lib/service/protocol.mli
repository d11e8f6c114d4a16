(** The [mbrd] wire protocol: line-delimited JSON over a Unix socket.

    One request per line, one response per line, matched by the
    client-chosen [id] (responses to one connection may interleave
    across sessions, since each session's work is serialized
    independently). The grammar is deliberately small — see DESIGN.md
    §14 for the full protocol description:

    {v request  := {"id": int, "verb": verb, ...verb params}
       verb     := "load" | "perturb" | "recompose" | "set-corners"
                 | "query-metrics" | "export-trace" | "telemetry"
                 | "shutdown"
       response := {"id": int, "ok": true, "data": value}
                 | {"id": int, "ok": false, "error": code,
                    "message": string}
       event    := {"id": int, "event": "progress", "stage": string,
                    "round": int, "blocks_total": int,
                    "wns"?: number} v}

    Event lines are out-of-band: a recompose sent with
    [progress: true] streams them on the requesting connection,
    strictly before its final response, each carrying the request's
    [id]. They have an ["event"] member and no ["ok"] member, so
    {!is_event} routes a line with one lookup.

    Everything here is pure data and codecs — both the daemon and the
    client link against this module, and the qcheck round-trip test
    pins the two directions together. Malformed input is a value
    ({!Mbr_obs.Json.of_string_result}, {!request_of_json}), never an
    exception: the daemon answers garbage with an error response. *)

type verb =
  | Load
  | Perturb
  | Recompose
  | Set_corners
  | Query_metrics
  | Export_trace
  | Telemetry
  | Shutdown

val verb_to_string : verb -> string
(** ["load"], ["perturb"], ["recompose"], ["set-corners"],
    ["query-metrics"], ["export-trace"], ["telemetry"],
    ["shutdown"]. *)

val verb_of_string : string -> verb option

val all_verbs : verb list

type request = {
  id : int;  (** echoed in the response; client's correlation key *)
  verb : verb;
  session : string option;  (** required by load / perturb / recompose *)
  profile : string option;
      (** load: ["tiny"] (default), ["flat"] or ["d1"]..["d5"]
          ({!Mbr_designgen.Profile.of_name}) *)
  scale : float option;  (** load: register-count multiplier, > 0 *)
  seed : int option;
      (** load: generator seed — D1–D5 keep their shipped seed when it
          is absent, tiny and flat use 1; perturb: ECO seed *)
  frac : float option;
      (** perturb: scales the default ECO fractions, none of which may
          pass 1 (so [frac] is at most 10 today) *)
  timeout_s : float option;  (** recompose: cancellation deadline *)
  path : string option;  (** export-trace: file to write *)
  corners : string option;
      (** load / set-corners: corner-set spec, comma-separated
          {!Mbr_sta.Corner.parse_set} syntax, e.g.
          ["typical,slow,fast"] *)
  recover : int option;  (** recompose: recovery-round budget *)
  cursor : int option;
      (** telemetry: a cursor from an earlier telemetry response —
          answer with the metrics {e delta} since that snapshot when
          the server still remembers it, full snapshot otherwise *)
  flight : bool option;
      (** telemetry: include the flight-recorder dump (last N request
          digests) in the response *)
  progress : bool option;
      (** recompose: stream progress event lines on this connection
          before the final response *)
}

val request :
  ?session:string ->
  ?profile:string ->
  ?scale:float ->
  ?seed:int ->
  ?frac:float ->
  ?timeout_s:float ->
  ?path:string ->
  ?corners:string ->
  ?recover:int ->
  ?cursor:int ->
  ?flight:bool ->
  ?progress:bool ->
  id:int ->
  verb ->
  request

(** Error codes a response can carry. [Overloaded] is the backpressure
    signal (a session's bounded queue is full — retry later);
    [Cancelled] is a recompose whose deadline tripped (the session
    stays usable); the rest are request or server faults. *)
type error_code =
  | Invalid_json  (** the line did not parse as JSON *)
  | Bad_request  (** missing/ill-typed field, bad parameter value *)
  | Unknown_verb
  | Unknown_session
  | Session_exists  (** load onto a name already in use *)
  | Overloaded  (** per-session queue full: explicit backpressure *)
  | Cancelled  (** recompose deadline exceeded; incumbent discarded upstream *)
  | Shutting_down
  | Internal  (** handler raised; the daemon survived, the request did not *)

val error_code_to_string : error_code -> string
(** Kebab-case wire form, e.g. ["unknown-session"]. *)

val error_code_of_string : string -> error_code option

type error = { code : error_code; message : string }

exception Reject of error
(** Internal control flow for request validation: codecs and the
    daemon's handlers raise it, and the nearest request boundary turns
    it into an error response. Never escapes {!request_of_json}. *)

val reject : error_code -> ('a, unit, string, 'b) format4 -> 'a
(** [reject code fmt ...] raises {!Reject} with a formatted message. *)

type response = { id : int; result : (Mbr_obs.Json.t, error) result }

val ok : int -> Mbr_obs.Json.t -> response

val fail : int -> error_code -> string -> response

val request_to_json : request -> Mbr_obs.Json.t
(** Omits [None] fields — the wire form carries only what the verb
    needs. *)

val request_of_json : Mbr_obs.Json.t -> (request, int * error) result
(** The [int] in the error is the request's [id] when one could be
    read ([-1] otherwise), so even a rejected request gets a
    correlatable response. Ill-typed known fields are [Bad_request];
    an unrecognized verb is [Unknown_verb]; unknown extra fields are
    ignored (forward compatibility). *)

val response_to_json : response -> Mbr_obs.Json.t

val response_of_json : Mbr_obs.Json.t -> (response, string) result
(** [Error] describes the shape violation — a client talking to
    something that is not an [mbrd]. *)

(** {2 Out-of-band events} *)

type progress_event = {
  pe_id : int;  (** id of the recompose request being served *)
  pe_stage : string;  (** stage entered (a {!Mbr_core.Flow} stage name) *)
  pe_round : int;  (** 0 = main pass, n = n-th recovery round *)
  pe_total : int;  (** blocks of completed allocate stages *)
  pe_wns : float option;  (** worst-corner WNS (ps); absent until known *)
}

val is_event : Mbr_obs.Json.t -> bool
(** The line is an event, not a response: route it to the event
    handler before trying {!response_of_json}. *)

val progress_to_json : progress_event -> Mbr_obs.Json.t

val progress_of_json : Mbr_obs.Json.t -> (progress_event, string) result
