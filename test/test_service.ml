(* Tests for Mbr_service: protocol codecs (qcheck round-trip +
   validation), a live daemon smoke test over a real Unix socket, the
   service-level cancellation contract, and the concurrency
   equivalence property — N clients hammering disjoint sessions
   concurrently must produce exactly what a serial replay of the same
   verbs through Flow.Session produces, because the daemon serializes
   per session and sessions share nothing. *)

module J = Mbr_obs.Json
module P = Mbr_service.Protocol
module C = Mbr_service.Client
module S = Mbr_service.Server
module Flow = Mbr_core.Flow
module G = Mbr_designgen.Generate
module Prof = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---- protocol codecs ---- *)

(* Wire floats go through %.12g, so the generator sticks to values
   that print exactly (same policy as the Json round-trip test). *)
let exact_float_gen =
  QCheck2.Gen.(
    oneof
      [
        map float_of_int (int_range 0 1_000_000);
        map (fun i -> float_of_int i /. 16.0) (int_range 0 16_000);
      ])

let wire_string_gen =
  QCheck2.Gen.(small_string ~gen:(map Char.chr (int_range 0 255)))

let request_gen =
  let open QCheck2.Gen in
  let opt g = option g in
  int_range 0 1_000_000 >>= fun id ->
  oneofl P.all_verbs >>= fun verb ->
  opt wire_string_gen >>= fun session ->
  opt wire_string_gen >>= fun profile ->
  opt exact_float_gen >>= fun scale ->
  opt (int_range 0 9999) >>= fun seed ->
  opt exact_float_gen >>= fun frac ->
  opt exact_float_gen >>= fun timeout_s ->
  opt wire_string_gen >>= fun path ->
  opt wire_string_gen >>= fun corners ->
  opt (int_range 0 9) >>= fun recover ->
  opt (int_range 0 1_000_000) >>= fun cursor ->
  opt bool >>= fun flight ->
  opt bool >>= fun progress ->
  return
    { P.id; verb; session; profile; scale; seed; frac; timeout_s; path;
      corners; recover; cursor; flight; progress }

let request_print (r : P.request) = J.to_string (P.request_to_json r)

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request -> json -> string -> request" ~count:500
    ~print:request_print request_gen (fun r ->
      match P.request_of_json (J.of_string (J.to_string (P.request_to_json r))) with
      | Ok r' -> r' = r
      | Error _ -> false)

let json_value_gen =
  QCheck2.Gen.(
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun f -> J.Num f) exact_float_gen;
        map (fun s -> J.Str s) wire_string_gen;
        map (fun l -> J.Arr (List.map (fun f -> J.Num f) l))
          (small_list exact_float_gen);
      ])

let response_gen =
  let open QCheck2.Gen in
  int_range 0 1_000_000 >>= fun id ->
  bool >>= fun is_ok ->
  if is_ok then json_value_gen >>= fun data -> return (P.ok id data)
  else
    oneofl P.[ Invalid_json; Bad_request; Unknown_verb; Unknown_session;
               Session_exists; Overloaded; Cancelled; Shutting_down; Internal ]
    >>= fun code ->
    wire_string_gen >>= fun msg -> return (P.fail id code msg)

let response_print (r : P.response) = J.to_string (P.response_to_json r)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response -> json -> string -> response" ~count:500
    ~print:response_print response_gen (fun r ->
      match P.response_of_json (J.of_string (J.to_string (P.response_to_json r))) with
      | Ok r' -> r' = r
      | Error _ -> false)

let test_request_validation () =
  let parse s = P.request_of_json (J.of_string s) in
  (match parse {|{"verb": "load"}|} with
  | Error (-1, { P.code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "missing id must be Bad_request with id -1");
  (match parse {|{"id": 7, "verb": "explode"}|} with
  | Error (7, { P.code = P.Unknown_verb; _ }) -> ()
  | _ -> Alcotest.fail "unknown verb must keep the id");
  (match parse {|{"id": 3, "verb": "load", "seed": "nope"}|} with
  | Error (3, { P.code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "ill-typed field must be Bad_request");
  (match parse {|{"id": -4, "verb": "load"}|} with
  | Error (-1, { P.code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "negative id rejected");
  (match parse {|[1, 2]|} with
  | Error (-1, { P.code = P.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "non-object rejected");
  (* unknown extra fields are ignored (forward compatibility) *)
  match parse {|{"id": 1, "verb": "shutdown", "future_knob": true}|} with
  | Ok { P.id = 1; verb = P.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "extra fields must be ignored"

(* ---- a live daemon ---- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/mbrd-test-%d-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

(* Run the daemon on its own thread; returns after it is accepting.
   [returned] is set once [S.run] returns. *)
let start_server ?(returned = Atomic.make false) config =
  let ready = Mutex.create () and cond = Condition.create () in
  let up = ref false in
  let on_ready () =
    Mutex.lock ready;
    up := true;
    Condition.signal cond;
    Mutex.unlock ready
  in
  let th =
    Thread.create (fun () -> S.run ~on_ready config; Atomic.set returned true) ()
  in
  Mutex.lock ready;
  while not !up do
    Condition.wait cond ready
  done;
  Mutex.unlock ready;
  th

let with_server ?(workers = 2) ?(queue_limit = 8) f =
  let socket_path = fresh_socket () in
  let config = { S.default_config with S.socket_path; workers; queue_limit } in
  let th = start_server config in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      (if not !finished then
         (* a failing test must still stop the daemon or alcotest hangs *)
         try
           let c = C.connect socket_path in
           ignore (C.shutdown c);
           C.close c
         with _ -> ());
      Thread.join th)
    (fun () ->
      let r = f socket_path in
      finished := true;
      r)

let get_ok = function
  | Ok data -> data
  | Error { P.code; message } ->
    Alcotest.failf "unexpected error %s: %s" (P.error_code_to_string code)
      message

let get_err = function
  | Ok data -> Alcotest.failf "expected an error, got %s" (J.to_string data)
  | Error e -> e

let int_field name j =
  match Option.bind (J.member name j) J.to_int with
  | Some i -> i
  | None -> Alcotest.failf "field %S missing in %s" name (J.to_string j)

let test_smoke () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let loaded = get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:5 ()) in
  check "load reports registers" true (int_field "registers" loaded > 0);
  (* duplicate load is refused, the original session is unharmed *)
  check "duplicate load" true
    ((get_err (C.load c ~session:"s" ())).P.code = P.Session_exists);
  let p = get_ok (C.perturb c ~session:"s" ~seed:3 ()) in
  check "perturb did something" true
    (int_field "moved" p + int_field "retyped" p + int_field "removed" p
     + int_field "added" p
    > 0);
  let r = get_ok (C.recompose c ~session:"s" ()) in
  check "recompose merged" true (int_field "n_merges" r >= 0);
  checki "round counter" 1 (int_field "round" r);
  (* errors: unknown session, missing session param, raw garbage *)
  check "unknown session" true
    ((get_err (C.perturb c ~session:"ghost" ())).P.code = P.Unknown_session);
  check "missing session param" true
    ((get_err (C.call c P.Recompose)).P.code = P.Bad_request);
  let m = get_ok (C.query_metrics c) in
  let sessions = Option.bind (J.member "sessions" m) J.to_list in
  check "query-metrics lists the session" true
    (match sessions with
    | Some l ->
      List.exists
        (fun s -> J.member "name" s = Some (J.Str "s"))
        l
    | None -> false);
  check "query-metrics carries the registry" true (J.member "metrics" m <> None);
  let trace_file = fresh_socket () ^ ".trace.json" in
  ignore (get_ok (C.export_trace c ~path:trace_file));
  check "trace file written and parseable" true
    (match J.of_string_result (In_channel.with_open_text trace_file In_channel.input_all) with
    | Ok (J.Obj _) -> Sys.remove trace_file; true
    | _ -> false);
  ignore (get_ok (C.shutdown c));
  (* the daemon unlinks its socket on the way out *)
  let rec gone n =
    (not (Sys.file_exists socket_path))
    || n > 0
       && begin
            Unix.sleepf 0.01;
            gone (n - 1)
          end
  in
  check "socket removed after shutdown" true (gone 500)

let test_malformed_lines () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* speak raw bytes at the daemon: it must answer errors, not die *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  (* closed on failure too: the daemon's drain waits for this reader *)
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
  let expect_code ?id line code =
    output_string oc (line ^ "\n");
    flush oc;
    let what = if String.length line > 60 then String.sub line 0 60 ^ "..." else line in
    match P.response_of_json (J.of_string (input_line ic)) with
    | Ok { P.result = Error e; id = got; _ } ->
      Alcotest.(check string)
        (Printf.sprintf "code for %s" what)
        (P.error_code_to_string code)
        (P.error_code_to_string e.P.code);
      Option.iter (fun id -> checki (Printf.sprintf "id for %s" what) id got) id
    | _ -> Alcotest.failf "expected an error response to %s" what
  in
  expect_code "{nonsense" P.Invalid_json;
  expect_code {|"just a string"|} P.Bad_request;
  expect_code {|{"id": 1, "verb": "frobnicate"}|} P.Unknown_verb;
  expect_code {|{"id": 2, "verb": "load"}|} P.Bad_request;
  (* a valid request padded past the 1 MiB line bound (unknown fields
     are ignored): refused unread, and the connection keeps serving *)
  expect_code ~id:(-1)
    (Printf.sprintf {|{"id": 3, "verb": "query-metrics", "pad": "%s"}|}
       (String.make (2 lsl 20) 'x'))
    P.Bad_request;
  expect_code "{nonsense" P.Invalid_json);
  (* the daemon survived: a real client still gets served *)
  ignore (get_ok (C.query_metrics c));
  ignore (get_ok (C.shutdown c))

(* A client that connected and never spoke must not keep the daemon
   alive after a shutdown: [run] returns with the idle connection still
   open, and that connection sees end of input. *)
let test_shutdown_with_idle_client () =
  let socket_path = fresh_socket () in
  let returned = Atomic.make false in
  let th = start_server ~returned { S.default_config with S.socket_path } in
  let idle = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect idle (Unix.ADDR_UNIX socket_path);
  let c = C.connect socket_path in
  ignore (get_ok (C.shutdown c));
  C.close c;
  let rec wait n =
    Atomic.get returned
    || n > 0
       && begin
            Unix.sleepf 0.01;
            wait (n - 1)
          end
  in
  let ok = wait 1000 in
  let eof = ok && Unix.read idle (Bytes.create 1) 0 1 = 0 in
  (* closing the idle socket lets a hung daemon return, so the join
     cannot hang the suite *)
  Unix.close idle;
  Thread.join th;
  check "run returned within 10 s" true ok;
  check "idle connection ended" true eof

(* The daemon resolves profile names as mbrc does: D1 keeps its
   shipped seed when the load names none. *)
let test_load_keeps_shipped_seed () =
  let g = G.generate (Prof.scaled Prof.d1 0.2) in
  let want =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"d" ~profile:"d1" ~scale:0.2 ()));
  let r = get_ok (C.recompose c ~session:"d" ()) in
  checki "total_regs" want.Flow.after.Mbr_core.Metrics.total_regs
    (int_field "total_regs" r);
  Alcotest.(check string) "tns"
    (Printf.sprintf "%.12g" want.Flow.after.Mbr_core.Metrics.tns)
    (match Option.bind (J.member "tns" r) J.to_float with
    | Some f -> Printf.sprintf "%.12g" f
    | None -> "missing");
  ignore (get_ok (C.shutdown c))

let test_cancelled_recompose_usable () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:2 ()));
  let e = get_err (C.recompose c ~session:"s" ~timeout_s:0.0 ()) in
  Alcotest.(check string) "deadline exceeded" "cancelled"
    (P.error_code_to_string e.P.code);
  (* the same session serves the next request normally *)
  let r = get_ok (C.recompose c ~session:"s" ()) in
  check "session usable after cancellation" true (int_field "n_merges" r >= 0);
  ignore (get_ok (C.shutdown c))

(* ---- progress streaming ----

   A recompose sent with [progress: true] streams one event per Fig.-4
   stage entered, strictly before the final response, all carrying the
   request's id. The raw-socket variant checks the wire ordering
   directly; the typed variant checks the event contents. *)

let fig4_stages =
  [ "eco-reset"; "metrics-before"; "decompose"; "compat-graph";
    "blocker-index"; "allocate"; "merge"; "scan-restitch"; "skew";
    "resize"; "metrics-after" ]

let test_progress_stream_wire () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:4 ()));
  (* raw connection: observe the exact line sequence for one request *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let req_id = 41 in
  output_string oc
    (J.to_string
       (P.request_to_json
          { (P.request ~id:req_id ~session:"s" P.Recompose) with
            P.progress = Some true })
    ^ "\n");
  flush oc;
  let events = ref [] and response = ref None in
  while !response = None do
    let j = J.of_string (input_line ic) in
    if P.is_event j then begin
      check "events arrive strictly before the final response" true
        (!response = None);
      match P.progress_of_json j with
      | Ok ev -> events := ev :: !events
      | Error m -> Alcotest.failf "malformed event: %s" m
    end
    else
      match P.response_of_json j with
      | Ok r -> response := Some r
      | Error m -> Alcotest.failf "protocol violation: %s" m
  done;
  close_in ic;
  let events = List.rev !events in
  (match !response with
  | Some { P.id; result = Ok _; _ } -> checki "response id" req_id id
  | _ -> Alcotest.fail "recompose must succeed");
  check "at least one event per stage" true
    (List.length events >= List.length fig4_stages);
  check "every event carries the request id" true
    (List.for_all (fun e -> e.P.pe_id = req_id) events);
  (* the main pass (round 0) enters every Fig.-4 stage, in order *)
  let round0 =
    List.filter_map
      (fun e -> if e.P.pe_round = 0 then Some e.P.pe_stage else None)
      events
  in
  Alcotest.(check (list string))
    "round 0 walks the Fig.-4 pipeline" fig4_stages round0;
  (* monotonicity: rounds and block counters never go backwards *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.P.pe_round <= b.P.pe_round
      && a.P.pe_resolved <= b.P.pe_resolved
      && monotone rest
    | _ -> true
  in
  check "rounds and resolved counts are monotone" true (monotone events);
  check "resolved <= total" true
    (List.for_all (fun e -> e.P.pe_resolved <= e.P.pe_total) events);
  ignore (get_ok (C.shutdown c))

let test_progress_typed_client () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:6 ()));
  let seen = ref [] in
  let r =
    get_ok
      (C.recompose c ~session:"s"
         ~on_progress:(fun e -> seen := e.P.pe_stage :: !seen)
         ())
  in
  check "recompose answered" true (int_field "n_merges" r >= 0);
  Alcotest.(check (list string))
    "typed client sees the stage walk" fig4_stages (List.rev !seen);
  (* without on_progress no events are requested — the callback-free
     path still works against the same daemon *)
  let r2 = get_ok (C.recompose c ~session:"s" ()) in
  check "plain recompose still fine" true (int_field "n_merges" r2 >= 0);
  ignore (get_ok (C.shutdown c))

(* a cancelled recompose must still terminate the event stream: the
   final (error) response arrives after whatever events escaped, and
   the client call returns instead of hanging *)
let test_cancelled_progress_terminates () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:3 ()));
  let n_events = ref 0 in
  let e =
    get_err
      (C.recompose c ~session:"s" ~timeout_s:0.0
         ~on_progress:(fun _ -> incr n_events)
         ())
  in
  Alcotest.(check string) "cancelled" "cancelled"
    (P.error_code_to_string e.P.code);
  (* the stream terminated and the connection is still usable *)
  let r = get_ok (C.recompose c ~session:"s" ()) in
  check "session usable after cancelled stream" true
    (int_field "n_merges" r >= 0);
  ignore (get_ok (C.shutdown c))

(* ---- telemetry verb ---- *)

let test_telemetry_cursor () =
  with_server @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:9 ()));
  ignore (get_ok (C.recompose c ~session:"s" ()));
  let str_field name j =
    match Option.bind (J.member name j) J.to_str with
    | Some s -> s
    | None -> Alcotest.failf "field %S missing in %s" name (J.to_string j)
  in
  let t1 = get_ok (C.telemetry c ()) in
  Alcotest.(check string) "first poll is full" "full" (str_field "mode" t1);
  check "snapshot parses back" true
    (match
       Option.map Mbr_obs.Metrics.snapshot_of_json (J.member "metrics" t1)
     with
    | Some (Ok _) -> true
    | _ -> false);
  check "queue depth reported" true (int_field "queue_depth" t1 >= 0);
  check "sessions listed" true
    (match Option.bind (J.member "sessions" t1) J.to_list with
    | Some l ->
      List.exists (fun s -> J.member "name" s = Some (J.Str "s")) l
    | None -> false);
  let c1 = int_field "cursor" t1 in
  ignore (get_ok (C.perturb c ~session:"s" ~seed:17 ()));
  let t2 = get_ok (C.telemetry c ~cursor:c1 ()) in
  Alcotest.(check string) "echoed cursor answers a delta" "delta"
    (str_field "mode" t2);
  check "cursor advances" true (int_field "cursor" t2 > c1);
  (* a delta applied to nothing still decodes as a snapshot *)
  check "delta parses back" true
    (match
       Option.map Mbr_obs.Metrics.snapshot_of_json (J.member "metrics" t2)
     with
    | Some (Ok _) -> true
    | _ -> false);
  (* an unknown (expired) cursor degrades to full, never errors *)
  let t3 = get_ok (C.telemetry c ~cursor:999_999 ()) in
  Alcotest.(check string) "unknown cursor falls back to full" "full"
    (str_field "mode" t3);
  (* the flight recorder remembers the requests just made *)
  let t4 = get_ok (C.telemetry c ~flight:true ()) in
  (match Option.bind (J.member "flight" t4) J.to_list with
  | Some digests ->
    check "flight recorder non-empty" true (digests <> []);
    check "flight digests carry verb/outcome" true
      (List.for_all
         (fun d ->
           J.member "verb" d <> None && J.member "outcome" d <> None
           && J.member "latency_s" d <> None)
         digests);
    check "flight remembers the recompose" true
      (List.exists
         (fun d -> J.member "verb" d = Some (J.Str "recompose"))
         digests)
  | None -> Alcotest.fail "flight dump missing despite flight: true");
  check "no flight dump unless asked" true (J.member "flight" t1 = None);
  ignore (get_ok (C.shutdown c))

(* ---- concurrency equivalence ----

   [n_sessions] sessions, [n_clients] client threads, each thread
   driving its own disjoint slice through load -> perturb -> recompose
   -> perturb -> recompose. The daemon interleaves the slices over its
   worker domains; the oracle replays every slice serially through
   Flow.Session in this process. Equal final numbers mean no request
   was lost, misrouted, reordered within a session, or allowed to
   touch a neighbouring session's state. *)

let replay_serial seed =
  let gen = G.generate (Prof.tiny ~seed) in
  let options = { Flow.default_options with Flow.jobs = Some 1 } in
  let session =
    Flow.Session.create ~options ~design:gen.G.design
      ~placement:gen.G.placement ~library:gen.G.library
      ~sta_config:gen.G.sta_config ()
  in
  let r = ref (Flow.Session.recompose session) in
  for round = 1 to 2 do
    ignore
      (Eco.perturb (Mbr_util.Rng.create (seed + (round * 100))) gen);
    r := Flow.Session.recompose session
  done;
  !r

let test_concurrent_equivalence () =
  let n_sessions = 6 and n_clients = 3 in
  with_server ~workers:4 @@ fun socket_path ->
  let results = Array.make n_sessions J.Null in
  let client k () =
    let c = C.connect socket_path in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    let s = ref k in
    while !s < n_sessions do
      let seed = !s in
      let name = Printf.sprintf "sess-%d" seed in
      ignore (get_ok (C.load c ~session:name ~profile:"tiny" ~seed ()));
      ignore (get_ok (C.recompose c ~session:name ()));
      for round = 1 to 2 do
        ignore
          (get_ok (C.perturb c ~session:name ~seed:(seed + (round * 100)) ()));
        results.(seed) <- get_ok (C.recompose c ~session:name ())
      done;
      s := !s + n_clients
    done
  in
  let threads = Array.init n_clients (fun k -> Thread.create (client k) ()) in
  Array.iter Thread.join threads;
  let c = C.connect socket_path in
  ignore (get_ok (C.shutdown c));
  C.close c;
  for seed = 0 to n_sessions - 1 do
    let oracle = replay_serial seed in
    let got = results.(seed) in
    checki
      (Printf.sprintf "session %d: rounds" seed)
      3 (int_field "round" got);
    checki
      (Printf.sprintf "session %d: merges" seed)
      oracle.Flow.n_merges (int_field "n_merges" got);
    checki
      (Printf.sprintf "session %d: registers" seed)
      oracle.Flow.after.Mbr_core.Metrics.total_regs
      (int_field "total_regs" got);
    let cost =
      match Option.bind (J.member "ilp_cost" got) J.to_float with
      | Some f -> f
      | None -> Alcotest.fail "ilp_cost missing"
    in
    check
      (Printf.sprintf "session %d: cost" seed)
      true
      (Float.abs (cost -. oracle.Flow.ilp_cost)
      <= 1e-6 *. Float.max 1.0 (Float.abs oracle.Flow.ilp_cost))
  done

(* Backpressure: with a queue limit of 1 and a slow session verb in
   flight, piling on more must eventually answer overloaded — and the
   session must survive the episode. *)
let test_overload_backpressure () =
  with_server ~workers:1 ~queue_limit:1 @@ fun socket_path ->
  let c = C.connect socket_path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (get_ok (C.load c ~session:"s" ~profile:"tiny" ~seed:1 ()));
  (* fire-and-forget raw writer: floods without waiting for answers *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let n = 24 in
  for i = 0 to n - 1 do
    output_string oc
      (J.to_string
         (P.request_to_json
            (P.request ~id:i ~session:"s" ~seed:i P.Perturb))
      ^ "\n")
  done;
  flush oc;
  let codes = Hashtbl.create 8 in
  for _ = 1 to n do
    match P.response_of_json (J.of_string (input_line ic)) with
    | Ok { P.result = Ok _; _ } ->
      Hashtbl.replace codes "ok" (1 + Option.value ~default:0 (Hashtbl.find_opt codes "ok"))
    | Ok { P.result = Error e; _ } ->
      let k = P.error_code_to_string e.P.code in
      Hashtbl.replace codes k (1 + Option.value ~default:0 (Hashtbl.find_opt codes k))
    | Error m -> Alcotest.failf "protocol violation: %s" m
  done;
  close_in ic;
  check "every request answered exactly once" true
    (Hashtbl.fold (fun _ v acc -> acc + v) codes 0 = n);
  check "some succeeded" true (Hashtbl.mem codes "ok");
  check "some shed as overloaded" true (Hashtbl.mem codes "overloaded");
  check "nothing else went wrong" true
    (Hashtbl.fold
       (fun k _ acc -> acc && (k = "ok" || k = "overloaded"))
       codes true);
  (* the flooded session still serves *)
  ignore (get_ok (C.recompose c ~session:"s" ()));
  ignore (get_ok (C.shutdown c))

let () =
  Alcotest.run "mbr_service"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "request validation" `Quick test_request_validation;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "smoke" `Quick test_smoke;
          Alcotest.test_case "malformed lines" `Quick test_malformed_lines;
          Alcotest.test_case "shutdown with an idle client" `Quick
            test_shutdown_with_idle_client;
          Alcotest.test_case "load keeps the shipped D1 seed" `Quick
            test_load_keeps_shipped_seed;
          Alcotest.test_case "cancelled recompose leaves session usable" `Quick
            test_cancelled_recompose_usable;
          Alcotest.test_case "overload backpressure" `Quick
            test_overload_backpressure;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "progress stream on the wire" `Quick
            test_progress_stream_wire;
          Alcotest.test_case "typed client progress callback" `Quick
            test_progress_typed_client;
          Alcotest.test_case "cancelled recompose terminates the stream"
            `Quick test_cancelled_progress_terminates;
          Alcotest.test_case "telemetry cursor and flight recorder" `Quick
            test_telemetry_cursor;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "concurrent clients = serial replay" `Slow
            test_concurrent_equivalence;
        ] );
    ]
