module J = Mbr_obs.Json
module P = Protocol
module Flow = Mbr_core.Flow
module G = Mbr_designgen.Generate
module Prof = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Executor = Mbr_util.Pool.Executor

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  alloc_jobs : int;
  session_metrics : bool;
  sample_period_s : float;
  prom_file : string option;
  flight_capacity : int;
  handle_sigusr2 : bool;
}

let default_config =
  {
    socket_path = "mbrd.sock";
    workers = 0;
    queue_limit = 32;
    alloc_jobs = 1;
    session_metrics = true;
    sample_period_s = 0.0;
    prom_file = None;
    flight_capacity = 256;
    handle_sigusr2 = false;
  }

(* ---- metrics (pre-registered: the registry mutex never sits on the
   request path, and a metrics query sees every series from the start) ---- *)

let m_requests = Mbr_obs.Metrics.counter "svc.requests"

let m_errors = Mbr_obs.Metrics.counter "svc.errors"

let m_overloaded = Mbr_obs.Metrics.counter "svc.overloaded"

let m_cancelled = Mbr_obs.Metrics.counter "svc.cancelled"

(* one family, one series per verb — what `mbrc top` and the
   Prometheus side consume *)
let latency_histograms =
  List.map
    (fun v ->
      ( v,
        Mbr_obs.Metrics.histogram
          ~labels:[ ("verb", P.verb_to_string v) ]
          "svc.latency_s" ))
    P.all_verbs

let latency_histogram verb = List.assq verb latency_histograms

let g_queue_depth = Mbr_obs.Metrics.gauge "svc.exec.queue_depth"

let g_sessions = Mbr_obs.Metrics.gauge "svc.sessions"

(* ---- connections ---- *)

type conn = {
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;  (** responses from several worker domains interleave *)
  mutable alive : bool;
}

(* A dead peer must not take the daemon down: write failures just mark
   the connection, and the work that produced the response is already
   done (and has updated the session) either way. *)
let send_json conn j =
  Mutex.lock conn.wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wlock) @@ fun () ->
  if conn.alive then
    try
      output_string conn.oc (J.to_string j);
      output_char conn.oc '\n';
      flush conn.oc
    with Sys_error _ | Unix.Unix_error _ -> conn.alive <- false

let send conn resp = send_json conn (P.response_to_json resp)

(* ---- sessions ---- *)

type session_state =
  | Loading  (** name reserved; the load request is still in the queue *)
  | Ready of { gen : G.t; flow : Flow.Session.t }

(* Per-session labeled series, registered once at session creation so
   the request path never touches the registry mutex. *)
type session_handles = {
  h_requests : Mbr_obs.Metrics.counter;
  h_errors : Mbr_obs.Metrics.counter;
  h_resolved : Mbr_obs.Metrics.counter;
  h_reused : Mbr_obs.Metrics.counter;
  h_recover_rounds : Mbr_obs.Metrics.counter;
  h_recompose_s : Mbr_obs.Metrics.histogram;
  h_pending : Mbr_obs.Metrics.gauge;
  h_served : Mbr_obs.Metrics.gauge;
}

let session_handles name =
  let labels = [ ("session", name) ] in
  {
    h_requests = Mbr_obs.Metrics.counter ~labels "svc.session.requests";
    h_errors = Mbr_obs.Metrics.counter ~labels "svc.session.errors";
    h_resolved = Mbr_obs.Metrics.counter ~labels "flow.session.blocks_resolved";
    h_reused = Mbr_obs.Metrics.counter ~labels "flow.session.blocks_reused";
    h_recover_rounds =
      Mbr_obs.Metrics.counter ~labels "flow.session.recover_rounds";
    h_recompose_s = Mbr_obs.Metrics.histogram ~labels "flow.session.recompose_s";
    h_pending = Mbr_obs.Metrics.gauge ~labels "svc.session.pending";
    h_served = Mbr_obs.Metrics.gauge ~labels "svc.session.served";
  }

type session = {
  sname : string;
  mutable state : session_state;
  pending : pending Queue.t;  (** guarded by the server lock *)
  mutable running : bool;  (** an executor job is draining this queue *)
  mutable served : int;
  handles : session_handles option;  (** [None] when session metrics are off *)
  mutable last_progress : P.progress_event option;
      (** latest heartbeat of an in-flight recompose; [None] when idle *)
}

and pending = { preq : P.request; pconn : conn; t_recv : float }

(* One answered request, as the flight recorder remembers it. *)
type flight = {
  fl_verb : string;
  fl_session : string;  (** [""] for global verbs *)
  fl_recv_s : float;  (** monotonic receipt time *)
  fl_latency_s : float;
  fl_outcome : string;  (** ["ok"] or the error code *)
  fl_message : string;  (** error message, truncated *)
}

type t = {
  config : config;
  exec : Executor.t;
  lock : Mutex.t;
  sessions : (string, session) Hashtbl.t;
  mutable stopping : bool;
  (* flight recorder: its own lock, never nested with [lock], so the
     SIGUSR2 dump can try-lock it without deadlock risk *)
  flight_lock : Mutex.t;
  flight : flight option array;
  mutable flight_next : int;  (** total recorded; slot = next mod cap *)
  (* telemetry cursors: recent snapshots the delta protocol can diff
     against (guarded by [lock]) *)
  mutable telem_next : int;
  mutable telem_snaps : (int * Mbr_obs.Metrics.snapshot) list;
}

(* how many snapshots the cursor protocol remembers: enough for a few
   concurrent pollers, small enough to never matter for memory *)
let telem_history = 8

let record_flight t fl =
  let cap = Array.length t.flight in
  if cap > 0 then begin
    Mutex.lock t.flight_lock;
    t.flight.(t.flight_next mod cap) <- Some fl;
    t.flight_next <- t.flight_next + 1;
    Mutex.unlock t.flight_lock
  end

(* Oldest-to-newest dump; [locked] callers already hold the lock. *)
let flight_list t =
  let cap = Array.length t.flight in
  let n = min t.flight_next cap in
  List.filter_map
    (fun i -> t.flight.((t.flight_next - n + i) mod cap))
    (List.init n Fun.id)

let flight_json t =
  Mutex.lock t.flight_lock;
  let l = flight_list t in
  Mutex.unlock t.flight_lock;
  J.Arr
    (List.map
       (fun fl ->
         J.Obj
           [
             ("verb", J.Str fl.fl_verb);
             ("session", J.Str fl.fl_session);
             ("recv_s", J.Num fl.fl_recv_s);
             ("latency_s", J.Num fl.fl_latency_s);
             ("outcome", J.Str fl.fl_outcome);
             ("message", J.Str fl.fl_message);
           ])
       l)

(* The SIGUSR2 path: handlers run at safe points but may interrupt a
   domain that holds the flight lock — try-lock and give up rather
   than deadlock. *)
let dump_flight_stderr t =
  if Mutex.try_lock t.flight_lock then begin
    let l = flight_list t in
    Mutex.unlock t.flight_lock;
    Printf.eprintf "mbrd flight recorder (%d of %d recorded):\n"
      (List.length l) t.flight_next;
    List.iter
      (fun fl ->
        Printf.eprintf "  %-12s %-16s recv=%.3fs lat=%.4fs %s%s\n" fl.fl_verb
          (if fl.fl_session = "" then "-" else fl.fl_session)
          fl.fl_recv_s fl.fl_latency_s fl.fl_outcome
          (if fl.fl_message = "" then "" else " " ^ fl.fl_message))
      l;
    flush stderr
  end
  else prerr_endline "mbrd flight recorder: busy, try again"

(* ---- request execution (on executor worker domains) ---- *)

let profile_of req =
  let name = Option.value req.P.profile ~default:"tiny" in
  let base =
    match Prof.of_name ?seed:req.P.seed name with
    | Some p -> p
    | None -> P.reject P.Bad_request "unknown profile %S" name
  in
  match req.P.scale with
  | None -> base
  | Some f when f > 0.0 && Float.is_finite f -> Prof.scaled base f
  | Some _ -> P.reject P.Bad_request "\"scale\" must be a positive number"

let eco_config frac =
  if not (Float.is_finite frac && frac >= 0.0) then
    P.reject P.Bad_request "\"frac\" must be a non-negative number";
  let d = Eco.default_config in
  {
    Eco.move_frac = d.Eco.move_frac *. frac;
    move_sigma = d.Eco.move_sigma;
    retype_frac = d.Eco.retype_frac *. frac;
    remove_frac = d.Eco.remove_frac *. frac;
    add_frac = d.Eco.add_frac *. frac;
  }

let corners_payload (m : Mbr_core.Metrics.t) =
  J.Arr
    (List.map
       (fun (name, wns, tns) ->
         J.Obj [ ("name", J.Str name); ("wns", J.Num wns); ("tns", J.Num tns) ])
       m.Mbr_core.Metrics.corners)

let recompose_payload (r : Flow.result) round =
  J.Obj
    [
      ("round", J.Num (float_of_int round));
      ("runtime_s", J.Num r.Flow.runtime_s);
      ("wns", J.Num r.Flow.after.Mbr_core.Metrics.wns);
      ("tns", J.Num r.Flow.after.Mbr_core.Metrics.tns);
      ("corners", corners_payload r.Flow.after);
      ("total_regs", J.Num (float_of_int r.Flow.after.Mbr_core.Metrics.total_regs));
      ("n_merges", J.Num (float_of_int r.Flow.n_merges));
      ("n_regs_merged", J.Num (float_of_int r.Flow.n_regs_merged));
      ("ilp_cost", J.Num r.Flow.ilp_cost);
      ("all_optimal", J.Bool r.Flow.all_optimal);
      ("blocks_resolved", J.Num (float_of_int r.Flow.eco_blocks_resolved));
      ("blocks_reused", J.Num (float_of_int r.Flow.eco_blocks_reused));
      ("recover_rounds", J.Num (float_of_int r.Flow.recover_rounds));
      ("recover_splits", J.Num (float_of_int r.Flow.recover_splits));
      ("cancelled", J.Bool r.Flow.cancelled);
    ]

let parse_corners spec =
  match Mbr_sta.Corner.parse_set spec with
  | Ok cs -> cs
  | Error m -> P.reject P.Bad_request "bad \"corners\": %s" m

(* One session request, on whichever worker domain picked it up. The
   session is held (acquire/release) for exactly the mutating part, so
   the ownership invariant is machine-checked on every request — a
   routing bug that let two domains at one session would trip
   [acquire], not corrupt state. *)
let exec_pending t sess p =
  let req = p.preq in
  try
    Mbr_obs.Trace.with_span ~name:("svc." ^ P.verb_to_string req.P.verb)
      ~args:[ ("session", Mbr_obs.Trace.Str sess.sname) ]
    @@ fun () ->
    match (req.P.verb, sess.state) with
    | P.Load, Loading ->
      let gen = G.generate (profile_of req) in
      (* explicit corner spec wins; otherwise the profile's derate
         spread decides (single typical corner when the spread is 0) *)
      let corners =
        match req.P.corners with
        | Some spec -> parse_corners spec
        | None -> gen.G.corners
      in
      let options =
        {
          Flow.default_options with
          Flow.jobs = Some t.config.alloc_jobs;
          Flow.corners = corners;
        }
      in
      let flow =
        Flow.Session.create ~options ~design:gen.G.design
          ~placement:gen.G.placement ~library:gen.G.library
          ~sta_config:gen.G.sta_config ()
      in
      sess.state <- Ready { gen; flow };
      P.ok req.P.id
        (J.Obj
           [
             ("session", J.Str sess.sname);
             ( "registers",
               J.Num
                 (float_of_int
                    (List.length (Mbr_netlist.Design.registers gen.G.design)))
             );
             ("profile", J.Str gen.G.profile.Prof.name);
             ("corners", J.Str (Mbr_sta.Corner.set_to_string corners));
           ])
    | P.Load, Ready _ ->
      (* unreachable: load is only ever queued on a fresh entry *)
      P.fail req.P.id P.Session_exists sess.sname
    | (P.Perturb | P.Recompose | P.Set_corners), Loading ->
      (* only reachable if this session's load failed and teardown
         raced new requests in; answered like the load never happened *)
      P.fail req.P.id P.Unknown_session sess.sname
    | P.Perturb, Ready { gen; flow } ->
      Flow.Session.acquire flow;
      Fun.protect ~finally:(fun () -> Flow.Session.release flow) @@ fun () ->
      let cfg = eco_config (Option.value req.P.frac ~default:1.0) in
      let rng = Mbr_util.Rng.create (Option.value req.P.seed ~default:0) in
      let stats = Eco.perturb ~config:cfg rng gen in
      P.ok req.P.id
        (J.Obj
           [
             ("moved", J.Num (float_of_int stats.Eco.moved));
             ("retyped", J.Num (float_of_int stats.Eco.retyped));
             ("removed", J.Num (float_of_int stats.Eco.removed));
             ("added", J.Num (float_of_int stats.Eco.added));
           ])
    | P.Recompose, Ready { flow; _ } ->
      Flow.Session.acquire flow;
      Fun.protect ~finally:(fun () -> Flow.Session.release flow) @@ fun () ->
      let cancel =
        Option.map
          (fun dt ->
            if not (Float.is_finite dt && dt >= 0.0) then
              P.reject P.Bad_request "\"timeout_s\" must be non-negative";
            Mbr_util.Cancel.create ~timeout_s:dt ())
          req.P.timeout_s
      in
      let recover =
        Option.map
          (fun n ->
            if n < 0 then
              P.reject P.Bad_request "\"recover\" must be non-negative";
            n)
          req.P.recover
      in
      (* Progress heartbeats: always recorded on the session (so a
         telemetry poll sees the in-flight stage), streamed to the
         requesting connection only when asked. The stream terminates
         unconditionally — cancelled or failed recomposes still send
         their final response after the last event, and the callback
         itself cannot raise (send_json swallows write errors). *)
      let streaming = req.P.progress = Some true in
      let on_progress (pg : Flow.progress) =
        let ev =
          {
            P.pe_id = req.P.id;
            pe_stage = pg.Flow.pr_stage;
            pe_round = pg.Flow.pr_round;
            pe_resolved = pg.Flow.pr_blocks_resolved;
            pe_total = pg.Flow.pr_blocks_total;
            pe_wns =
              (if Float.is_nan pg.Flow.pr_wns then None
               else Some pg.Flow.pr_wns);
          }
        in
        sess.last_progress <- Some ev;
        if streaming then send_json p.pconn (P.progress_to_json ev)
      in
      let r =
        Fun.protect ~finally:(fun () -> sess.last_progress <- None)
        @@ fun () -> Flow.Session.recompose ?cancel ?recover ~on_progress flow
      in
      (match sess.handles with
      | Some h when t.config.session_metrics ->
        Mbr_obs.Metrics.incr ~by:r.Flow.eco_blocks_resolved h.h_resolved;
        Mbr_obs.Metrics.incr ~by:r.Flow.eco_blocks_reused h.h_reused;
        Mbr_obs.Metrics.incr ~by:r.Flow.recover_rounds h.h_recover_rounds;
        Mbr_obs.Metrics.observe h.h_recompose_s r.Flow.runtime_s;
        (* per-corner WNS, labeled session x corner *)
        List.iter
          (fun (cname, wns, _) ->
            Mbr_obs.Metrics.set
              (Mbr_obs.Metrics.gauge
                 ~labels:[ ("session", sess.sname); ("corner", cname) ]
                 "svc.session.wns")
              wns)
          r.Flow.after.Mbr_core.Metrics.corners
      | _ -> ());
      if r.Flow.cancelled then
        P.fail req.P.id P.Cancelled
          (Printf.sprintf
             "recompose exceeded its %gs deadline; session %S is consistent \
              and usable"
             (Option.value req.P.timeout_s ~default:0.0)
             sess.sname)
      else P.ok req.P.id (recompose_payload r (Flow.Session.recomposes flow))
    | P.Set_corners, Ready { flow; _ } ->
      Flow.Session.acquire flow;
      Fun.protect ~finally:(fun () -> Flow.Session.release flow) @@ fun () ->
      let cs =
        match req.P.corners with
        | None -> P.reject P.Bad_request "set-corners needs \"corners\""
        | Some spec -> parse_corners spec
      in
      Flow.Session.set_corners flow cs;
      P.ok req.P.id
        (J.Obj
           [
             ("session", J.Str sess.sname);
             ("corners", J.Str (Mbr_sta.Corner.set_to_string cs));
             ("n_corners", J.Num (float_of_int (Array.length cs)));
           ])
    | (P.Query_metrics | P.Export_trace | P.Telemetry | P.Shutdown), _ ->
      (* global verbs never reach a session queue *)
      assert false
  with
  | P.Reject e -> { P.id = req.P.id; result = Error e }
  | e -> P.fail req.P.id P.Internal (Printexc.to_string e)

let truncate_msg m =
  if String.length m <= 120 then m else String.sub m 0 117 ^ "..."

let account t ?sess verb t_recv result =
  let dt = Mbr_obs.Clock.now_s () -. t_recv in
  (match result with
  | Ok _ -> ()
  | Error { P.code; _ } ->
    Mbr_obs.Metrics.incr m_errors;
    (match code with
    | P.Overloaded -> Mbr_obs.Metrics.incr m_overloaded
    | P.Cancelled -> Mbr_obs.Metrics.incr m_cancelled
    | _ -> ()));
  Mbr_obs.Metrics.observe (latency_histogram verb) dt;
  (match Option.bind sess (fun s -> s.handles) with
  | Some h ->
    Mbr_obs.Metrics.incr h.h_requests;
    (match result with
    | Error _ -> Mbr_obs.Metrics.incr h.h_errors
    | Ok _ -> ())
  | None -> ());
  let outcome, message =
    match result with
    | Ok _ -> ("ok", "")
    | Error { P.code; message } ->
      (P.error_code_to_string code, truncate_msg message)
  in
  record_flight t
    {
      fl_verb = P.verb_to_string verb;
      fl_session = (match sess with Some s -> s.sname | None -> "");
      fl_recv_s = t_recv;
      fl_latency_s = dt;
      fl_outcome = outcome;
      fl_message = message;
    }

let answer t ?sess verb t_recv conn resp =
  send conn resp;
  account t ?sess verb t_recv resp.P.result

(* Drain one request, then resubmit: the executor's FIFO round-robins
   the sessions, so a deep queue on one session cannot starve the
   others. [running] guarantees at most one in-flight job per session —
   that, plus acquire/release inside, IS the serialization. *)
let rec pump t sess () =
  let next =
    Mutex.lock t.lock;
    let j = Queue.take_opt sess.pending in
    if j = None then sess.running <- false;
    Mutex.unlock t.lock;
    j
  in
  match next with
  | None -> ()
  | Some p ->
    let resp = exec_pending t sess p in
    sess.served <- sess.served + 1;
    answer t ~sess p.preq.P.verb p.t_recv p.pconn resp;
    (* a failed load tears the reservation down: the name frees up and
       anything already queued behind it is answered unknown-session *)
    let orphans =
      match (p.preq.P.verb, resp.P.result) with
      | P.Load, Error _ ->
        Mutex.lock t.lock;
        Hashtbl.remove t.sessions sess.sname;
        let q = Queue.fold (fun acc x -> x :: acc) [] sess.pending in
        Queue.clear sess.pending;
        sess.running <- false;
        Mutex.unlock t.lock;
        List.rev q
      | _ -> []
    in
    List.iter
      (fun o ->
        answer t ~sess o.preq.P.verb o.t_recv o.pconn
          (P.fail o.preq.P.id P.Unknown_session sess.sname))
      orphans;
    if orphans = [] then
      try Executor.submit t.exec (pump t sess)
      with Invalid_argument _ ->
        (* executor already shut down: finish the drain here *)
        pump t sess ()

(* ---- global verbs (answered on the reader thread: cheap) ---- *)

(* One JSON row per session, [extra] fields appended; the caller holds
   [t.lock]. *)
let session_rows ?(extra = fun _ -> []) t =
  Hashtbl.fold
    (fun name sess acc ->
      J.Obj
        ([
           ("name", J.Str name);
           ( "loaded",
             J.Bool (match sess.state with Ready _ -> true | Loading -> false)
           );
           ( "recomposes",
             J.Num
               (float_of_int
                  (match sess.state with
                  | Ready { flow; _ } -> Flow.Session.recomposes flow
                  | Loading -> 0)) );
           ("served", J.Num (float_of_int sess.served));
           ("pending", J.Num (float_of_int (Queue.length sess.pending)));
         ]
        @ extra sess)
      :: acc)
    t.sessions []

let metrics_payload t =
  let sessions =
    Mutex.lock t.lock;
    let l = session_rows t in
    Mutex.unlock t.lock;
    l
  in
  J.Obj
    [
      ("metrics", Mbr_obs.Metrics.snapshot_json (Mbr_obs.Metrics.snapshot ()));
      ("sessions", J.Arr sessions);
    ]

(* The telemetry verb: one poll = one snapshot, stamped with a cursor.
   A poller that echoes its previous cursor gets the metrics *delta*
   since that snapshot (counters/histograms subtract, gauges stay
   absolute) as long as the server still remembers it — the ring keeps
   the last [telem_history] cursors, so a handful of concurrent
   dashboards each get deltas; a stale or unknown cursor degrades to a
   full snapshot, never an error. *)
let telemetry_payload t req =
  (* snapshot outside the server lock: it takes the registry mutex,
     and lock order is t.lock -> registry, never the reverse *)
  let snap = Mbr_obs.Metrics.snapshot () in
  let cursor, base, sessions =
    Mutex.lock t.lock;
    let base =
      Option.bind req.P.cursor (fun c -> List.assoc_opt c t.telem_snaps)
    in
    let cursor = t.telem_next in
    t.telem_next <- t.telem_next + 1;
    t.telem_snaps <-
      (cursor, snap) :: List.filteri (fun i _ -> i < telem_history - 1) t.telem_snaps;
    let sessions =
      session_rows t ~extra:(fun sess ->
          match sess.last_progress with
          | Some ev -> [ ("progress", P.progress_to_json ev) ]
          | None -> [])
    in
    Mutex.unlock t.lock;
    (cursor, base, sessions)
  in
  let mode, metrics =
    match base with
    | Some b -> ("delta", Mbr_obs.Metrics.Snapshot.diff ~base:b snap)
    | None -> ("full", snap)
  in
  J.Obj
    ([
       ("cursor", J.Num (float_of_int cursor));
       ("mode", J.Str mode);
       ( "queue_depth",
         J.Num (float_of_int (Executor.queue_depth t.exec)) );
       ("metrics", Mbr_obs.Metrics.snapshot_json metrics);
       ("sessions", J.Arr sessions);
     ]
    @ if req.P.flight = Some true then [ ("flight", flight_json t) ] else [])

(* Wake the accept loop: connect-and-close is portable where closing a
   listening socket out from under accept(2) is not. *)
let initiate_stop t =
  let fresh =
    Mutex.lock t.lock;
    let fresh = not t.stopping in
    t.stopping <- true;
    Mutex.unlock t.lock;
    fresh
  in
  if fresh then
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX t.config.socket_path)
    with Unix.Unix_error _ -> ()

(* ---- request routing (on reader threads) ---- *)

let route_session_verb t conn req t_recv =
  match req.P.session with
  | None ->
    answer t req.P.verb t_recv conn
      (P.fail req.P.id P.Bad_request
         (Printf.sprintf "verb %S needs a \"session\""
            (P.verb_to_string req.P.verb)))
  | Some name ->
    let p = { preq = req; pconn = conn; t_recv } in
    let decision =
      Mutex.lock t.lock;
      let d =
        if t.stopping then `Err (P.Shutting_down, "server is shutting down")
        else
          match (req.P.verb, Hashtbl.find_opt t.sessions name) with
          | P.Load, Some _ ->
            `Err (P.Session_exists, Printf.sprintf "session %S exists" name)
          | P.Load, None ->
            let sess =
              {
                sname = name;
                state = Loading;
                pending = Queue.create ();
                running = false;
                served = 0;
                handles =
                  (if t.config.session_metrics then Some (session_handles name)
                   else None);
                last_progress = None;
              }
            in
            Hashtbl.add t.sessions name sess;
            Queue.add p sess.pending;
            sess.running <- true;
            `Pump sess
          | _, None ->
            `Err (P.Unknown_session, Printf.sprintf "no session %S" name)
          | _, Some sess ->
            if Queue.length sess.pending >= t.config.queue_limit then
              `Err
                ( P.Overloaded,
                  Printf.sprintf "session %S has %d requests pending" name
                    (Queue.length sess.pending) )
            else begin
              Queue.add p sess.pending;
              if sess.running then `Queued
              else begin
                sess.running <- true;
                `Pump sess
              end
            end
      in
      Mutex.unlock t.lock;
      d
    in
    (match decision with
    | `Err (code, msg) ->
      answer t req.P.verb t_recv conn (P.fail req.P.id code msg)
    | `Queued -> ()
    | `Pump sess -> (
      try Executor.submit t.exec (pump t sess)
      with Invalid_argument _ -> pump t sess ()))

let handle_line t conn line =
  Mbr_obs.Metrics.incr m_requests;
  let t_recv = Mbr_obs.Clock.now_s () in
  match J.of_string_result line with
  | Error e -> send conn (P.fail (-1) P.Invalid_json (J.error_to_string e))
  | Ok j -> (
    match P.request_of_json j with
    | Error (id, e) -> send conn { P.id; result = Error e }
    | Ok req -> (
      match req.P.verb with
      | P.Query_metrics ->
        answer t req.P.verb t_recv conn (P.ok req.P.id (metrics_payload t))
      | P.Telemetry ->
        answer t req.P.verb t_recv conn (P.ok req.P.id (telemetry_payload t req))
      | P.Export_trace -> (
        match req.P.path with
        | None ->
          answer t req.P.verb t_recv conn
            (P.fail req.P.id P.Bad_request "export-trace needs a \"path\"")
        | Some path ->
          let resp =
            try
              Mbr_obs.Trace.write path;
              P.ok req.P.id (J.Obj [ ("path", J.Str path) ])
            with Sys_error m -> P.fail req.P.id P.Internal m
          in
          answer t req.P.verb t_recv conn resp)
      | P.Shutdown ->
        answer t req.P.verb t_recv conn
          (P.ok req.P.id (J.Obj [ ("stopping", J.Bool true) ]));
        initiate_stop t
      | P.Load | P.Perturb | P.Recompose | P.Set_corners ->
        route_session_verb t conn req t_recv)
    )

(* The longest request line the daemon buffers, newline excluded. Real
   requests stay well under 4 KiB; the bound keeps one client's
   unterminated line from growing the daemon without limit. *)
let max_line_bytes = 1 lsl 20

(* [input_line] with the bound: [`Too_long] once a line passes
   [max_line_bytes], after skipping the rest of it up to its newline.
   Raises [End_of_file] at the end of input, like [input_line]. *)
let input_line_bounded ic =
  let buf = Buffer.create 256 in
  let rec fill () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents buf)
    | c when Buffer.length buf < max_line_bytes ->
      Buffer.add_char buf c;
      fill ()
    | _ -> skip ()
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise End_of_file
      else `Line (Buffer.contents buf)
  and skip () =
    match input_char ic with
    | '\n' -> `Too_long
    | _ -> skip ()
    | exception End_of_file -> `Too_long
  in
  fill ()

let reader t conn () =
  let rec loop () =
    match input_line_bounded conn.ic with
    | `Line line ->
      if String.length line > 0 then handle_line t conn line;
      loop ()
    | `Too_long ->
      Mbr_obs.Metrics.incr m_requests;
      send conn
        (P.fail (-1) P.Bad_request
           (Printf.sprintf "request line longer than %d bytes" max_line_bytes));
      loop ()
    | exception (End_of_file | Sys_error _) -> ()
  in
  loop ();
  (* closing ic closes the shared fd; oc's buffer is already flushed
     after every response. Closed under the lock, so [hang_up] never
     meets a closed (or reused) descriptor. *)
  Mutex.lock conn.wlock;
  conn.alive <- false;
  (try close_in conn.ic with Sys_error _ -> ());
  Mutex.unlock conn.wlock

(* End a connection's input so its reader sees end of input and
   leaves: the receiving side only, so a response being written still
   goes out. A reader that has already left closed the channel, and
   its descriptor lookup raises. *)
let hang_up conn =
  Mutex.lock conn.wlock;
  (try Unix.shutdown (Unix.descr_of_in_channel conn.ic) Unix.SHUTDOWN_RECEIVE
   with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.unlock conn.wlock

(* ---- lifecycle ---- *)

let run ?on_ready config =
  let jobs n =
    match Mbr_util.Pool.resolve_jobs n with
    | Ok j -> j
    | Error m -> invalid_arg ("Server.run: " ^ m)
  in
  let config =
    { config with workers = jobs config.workers; alloc_jobs = jobs config.alloc_jobs }
  in
  let t =
    {
      config;
      exec = Executor.create ~workers:config.workers ();
      lock = Mutex.create ();
      sessions = Hashtbl.create 64;
      stopping = false;
      flight_lock = Mutex.create ();
      flight = Array.make (max 0 config.flight_capacity) None;
      flight_next = 0;
      telem_next = 0;
      telem_snaps = [];
    }
  in
  if config.handle_sigusr2 then
    (try
       Sys.set_signal Sys.sigusr2
         (Sys.Signal_handle (fun _ -> dump_flight_stderr t))
     with Invalid_argument _ | Sys_error _ -> ());
  (* the sampler publishes process vitals plus the server's own gauges
     (executor queue depth, session count, per-session pending/served) *)
  let sampler =
    if config.sample_period_s > 0.0 || config.prom_file <> None then begin
      let period_s =
        if config.sample_period_s > 0.0 then config.sample_period_s else 1.0
      in
      let extra () =
        Mbr_obs.Metrics.set g_queue_depth
          (float_of_int (Executor.queue_depth t.exec));
        Mutex.lock t.lock;
        Mbr_obs.Metrics.set g_sessions
          (float_of_int (Hashtbl.length t.sessions));
        Hashtbl.iter
          (fun _ sess ->
            match sess.handles with
            | Some h ->
              Mbr_obs.Metrics.set h.h_pending
                (float_of_int (Queue.length sess.pending));
              Mbr_obs.Metrics.set h.h_served (float_of_int sess.served)
            | None -> ())
          t.sessions;
        Mutex.unlock t.lock
      in
      Some
        (Mbr_obs.Sampler.start ~period_s ?prom_file:config.prom_file ~extra ())
    end
    else None
  in
  (if Sys.file_exists config.socket_path then
     try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Option.iter (fun f -> f ()) on_ready;
  let readers = ref [] in
  let rec accept_loop () =
    if not t.stopping then begin
      match Unix.accept listen_fd with
      | fd, _ ->
        if t.stopping then Unix.close fd
        else begin
          let conn =
            {
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
              wlock = Mutex.create ();
              alive = true;
            }
          in
          readers := (Thread.create (reader t conn) (), conn) :: !readers
        end;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> if not t.stopping then raise Exit
    end
  in
  accept_loop ();
  Unix.close listen_fd;
  (* drain: every queued request is answered before the workers go *)
  Executor.shutdown t.exec;
  (* final sampler tick runs before the join, so a prom_file always
     reflects the drained state *)
  Option.iter Mbr_obs.Sampler.stop sampler;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  (* every queued response has been written: end the connections
     clients still hold open, or an idle one keeps its reader (and so
     the daemon) waiting for input that never comes *)
  List.iter (fun (_, conn) -> hang_up conn) !readers;
  List.iter (fun (th, _) -> Thread.join th) !readers
