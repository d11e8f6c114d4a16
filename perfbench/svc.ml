(* svc_mix: the shipped mbrd daemon in its own process, driven by this
   process over its Unix socket through Mbr_service.Client.

   One epoch = start a daemon, load every session and compose it once
   (set-up), run the seeded request mix as one closed loop per
   connection, each owning its own sessions (timed), check the outputs,
   shut the daemon down and wait for it. A run is a few epochs, so
   set-up is sampled more than once.

   The mix is the repository's own service soak (bench/main.ml, section
   7): a session's steps are perturbs with probability 0.45 (seed and
   batch size 0.5-1.5 drawn per step) and recomposes otherwise, closed
   by a zero-deadline recompose and a recovery recompose. Polls are
   what [mbrc top] sends: one telemetry request, echoing its cursor,
   every [top_interval_s] of the mix. Each connection ends with the
   soak's routing audit, one query-metrics. *)

open Perfbench
module C = Mbr_service.Client
module Proto = Mbr_service.Protocol
module J = Mbr_obs.Json
module Flow = Mbr_core.Flow
module CM = Mbr_core.Metrics
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng
module Clock = Mbr_obs.Clock
module W = Workload

let workers = 2

let connections = 2

let sessions_per_conn = 4

(* mbrc top's default refresh interval *)
let top_interval_s = 2.0

(* bench section 7's perturb share of a session's steps *)
let perturb_share = 0.45

type action =
  | Perturb of int * float  (** ECO seed, batch size *)
  | Recompose of bool  (** stream progress events *)
  | Recompose_zero  (** zero deadline: must answer cancelled *)
  | Query
  | Telemetry

let verb_of = function
  | Perturb _ -> "perturb"
  | Recompose _ | Recompose_zero -> "recompose"
  | Query -> "query-metrics"
  | Telemetry -> "telemetry"

(* Session [sid]'s program of [len] steps, drawn as the soak draws a
   session's, from a generator seeded by the session alone: so its
   history, and the QoR it answers, is the same for every run seed.
   Even sessions stream progress events on every recompose (the soak
   with its telemetry plane on, the default), odd ones do not (its
   control run in section 9). *)
let program ~sid ~len =
  let rng = Rng.create (7000 + sid) in
  let progress = sid mod 2 = 0 in
  let step _ =
    if Rng.float rng 1.0 < perturb_share then
      let seed = Rng.int rng 1_000_000 in
      Perturb (seed, 0.5 +. Rng.float rng 1.0)
    else Recompose progress
  in
  List.init (max 0 (len - 2)) step @ [ Recompose_zero; Recompose progress ]

(* The request list of connection [conn]: its sessions' programs and
   [polls] telemetry polls, merged in an order the run seed draws, then
   the routing audit. *)
let plan ~rng ~conn ~len ~polls =
  let progs =
    Array.init sessions_per_conn (fun s ->
        ref (program ~sid:((conn * sessions_per_conn) + s) ~len))
  in
  let polls = ref polls in
  let steps = ref [] in
  let remaining () = !polls + Array.fold_left (fun acc p -> acc + List.length !p) 0 progs in
  while remaining () > 0 do
    let x = ref (Rng.int rng (remaining ())) in
    if !x < !polls then begin
      decr polls;
      steps := (0, Telemetry) :: !steps
    end
    else begin
      x := !x - !polls;
      let s = ref 0 in
      while !x >= List.length !(progs.(!s)) do
        x := !x - List.length !(progs.(!s));
        incr s
      done;
      match !(progs.(!s)) with
      | a :: rest ->
        progs.(!s) := rest;
        steps := (!s, a) :: !steps
      | [] -> assert false
    end
  done;
  List.rev ((0, Query) :: !steps)

type conn_result = {
  rtts : (string * float) list;  (** (verb, seconds), in order *)
  failures : string list;
  sent : int array;  (** session requests per owned session *)
  regs : int;  (** summed over the mix's recompose answers *)
  tns : float;
  responses : (action * J.t option) list;
      (** (action, data) of the session [replayed] picks *)
  flows_ms : float list;
  queue_depth_max : int;
}

let num k j = Option.bind (J.member k j) J.to_float

let session_name ~conn s = Printf.sprintf "c%d-s%d" conn s

(* ---- daemon lifecycle ---- *)

(* The daemon's GC/RSS sampler runs only when its gauges are read (the
   per-layer run): its lock-taking ticks widen the request tail. *)
let spawn ~mbrd ~socket ~log ~traced ~sampled =
  let args =
    [ mbrd; "--socket"; socket; "--workers"; string_of_int workers;
      "--alloc-jobs"; "1"; "--sample-period"; (if sampled then "0.1" else "0") ]
    @ if traced then [ "--trace" ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process mbrd (Array.of_list args) devnull logfd logfd
  in
  Unix.close devnull;
  Unix.close logfd;
  pid

let rec connect_retry socket deadline =
  match C.connect socket with
  | c -> c
  | exception Unix.Unix_error _ when Clock.now_s () < deadline ->
    Thread.delay 0.005;
    connect_retry socket deadline

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec loop () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
      | _ -> loop ()
      | exception End_of_file -> 0.0
    in
    let v = loop () in
    close_in ic;
    v

(* ---- one connection's closed loop ---- *)

let expect_ok what = function
  | Ok j -> Ok j
  | Error e ->
    Error
      (Printf.sprintf "%s: %s %s" what (Proto.error_code_to_string e.Proto.code)
         e.Proto.message)

(* [cursor] is the connection's telemetry cursor, kept across calls;
   [replayed s] tells whether the answers to session [s] are kept. *)
let run_conn ~client ~conn ~cursor ~replayed ~steps =
  (* each session's load and warm-up recompose *)
  let sent = Array.make sessions_per_conn 2 in
  let regs = ref 0 and tns = ref 0.0 in
  let rtts = ref [] and responses = ref [] and failures = ref [] in
  let flows = ref [] and qmax = ref 0 in
  List.iter
    (fun (s, a) ->
      let session = session_name ~conn s in
      let t0 = Clock.now_s () in
      let r =
        match a with
        | Perturb (seed, frac) -> C.perturb client ~session ~seed ~frac ()
        | Recompose false -> C.recompose client ~session ()
        | Recompose true ->
          C.recompose client ~session ~on_progress:ignore ()
        | Recompose_zero -> C.recompose client ~session ~timeout_s:0.0 ()
        | Query -> C.query_metrics client
        | Telemetry -> C.telemetry client ?cursor:!cursor ()
      in
      rtts := (verb_of a, Clock.now_s () -. t0) :: !rtts;
      (match a with
      | Perturb _ | Recompose _ | Recompose_zero -> sent.(s) <- sent.(s) + 1
      | Query | Telemetry -> ());
      let keep data = if replayed s then responses := (a, data) :: !responses in
      match (a, r) with
      | Recompose_zero, Error { Proto.code = Proto.Cancelled; _ } -> keep None
      | Recompose_zero, _ ->
        failures := Printf.sprintf "%s: zero-deadline recompose not cancelled" session :: !failures
      | _, Error _ -> (
        match expect_ok (verb_of a ^ " " ^ session) r with
        | Error m -> failures := m :: !failures
        | Ok _ -> ())
      | Recompose _, Ok j ->
        let g k = Option.value (num k j) ~default:Float.nan in
        regs := !regs + int_of_float (g "total_regs");
        tns := !tns +. g "tns";
        flows := (g "runtime_s" *. 1000.0) :: !flows;
        keep (Some j)
      | Perturb _, Ok j -> keep (Some j)
      | Telemetry, Ok j ->
        cursor := Option.map int_of_float (num "cursor" j);
        qmax := max !qmax (int_of_float (Option.value (num "queue_depth" j) ~default:0.0))
      | Query, Ok _ -> ())
    steps;
  {
    rtts = List.rev !rtts;
    failures = List.rev !failures;
    sent;
    regs = !regs;
    tns = !tns;
    responses = List.rev !responses;
    flows_ms = !flows;
    queue_depth_max = !qmax;
  }

(* ---- in-process replay of sampled sessions ---- *)

let replay_options (g : G.t) =
  { Flow.default_options with Flow.jobs = Some 1; corners = g.G.corners }

(* the ECO batch mbrd applies for a perturb of size [frac] *)
let eco_config frac =
  let d = Eco.default_config in
  {
    d with
    Eco.move_frac = d.Eco.move_frac *. frac;
    retype_frac = d.Eco.retype_frac *. frac;
    remove_frac = d.Eco.remove_frac *. frac;
    add_frac = d.Eco.add_frac *. frac;
  }

type replay = {
  r_qor : W.qor;
  r_generate_s : float;
  r_build_s : float;
  r_problems : string list;
}

(* Replays one session's whole history in this process and checks that
   every recompose the daemon answered equals the library's own result
   (register count, TNS, WNS, ILP cost to 1e-6). Its recomposes also
   give the clock-capacitance and wirelength QoR the wire does not
   carry. *)
let replay ~name ~load_seed (history : (action * J.t option) list) =
  let t0 = Clock.now_s () in
  let g = G.generate (P.tiny ~seed:load_seed) in
  let t1 = Clock.now_s () in
  let sess =
    Flow.Session.create ~options:(replay_options g) ~design:g.G.design
      ~placement:g.G.placement ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let t2 = Clock.now_s () in
  ignore (Flow.Session.recompose sess);
  let qor = ref W.qor0 in
  let problems = ref [] in
  List.iter
    (fun (a, data) ->
      match (a, data) with
      | Perturb (seed, frac), _ ->
        ignore (Eco.perturb ~config:(eco_config frac) (Rng.create seed) g)
      | Recompose_zero, _ ->
        let r =
          Flow.Session.recompose ~cancel:(Mbr_util.Cancel.create ~timeout_s:0.0 ()) sess
        in
        if not r.Flow.cancelled then
          problems := (name ^ ": replayed zero-deadline recompose not cancelled") :: !problems
      | Recompose _, Some j ->
        let r = Flow.Session.recompose sess in
        qor := W.add_after !qor r.Flow.after;
        List.iter
          (fun (what, mine) ->
            let theirs = Option.value (num what j) ~default:Float.nan in
            if not (W.close mine theirs) then
              problems :=
                Printf.sprintf "%s: daemon %s %g <> replay %g" name what theirs mine
                :: !problems)
          [
            ("total_regs", float_of_int r.Flow.after.CM.total_regs);
            ("tns", r.Flow.after.CM.tns);
            ("wns", r.Flow.after.CM.wns);
            ("ilp_cost", r.Flow.ilp_cost);
          ]
      | (Recompose _ | Query | Telemetry), _ -> ())
    history;
  {
    r_qor = !qor;
    r_generate_s = t1 -. t0;
    r_build_s = t2 -. t1;
    r_problems = List.rev !problems;
  }

(* ---- one epoch ---- *)

type epoch = {
  e_setup_s : float;
  e_mix_s : float;  (** wall of the timed mix *)
  e_rtts : (string * float) list;
  e_failures : string list;
  e_failed : int;
  e_regs : int;
  e_tns : float;
  e_replay : replay;
  e_rss_mb : float;
  e_flows_ms : float list;
  e_queue_depth_max : int;
  e_metrics_delta : Mbr_obs.Metrics.snapshot;  (** daemon registry over the mix *)
  e_gc_delta : (string * float) list;  (** daemon gc gauges over the mix *)
  e_trace : Mbr_obs.Json.t option;
}

let metrics_snapshot client =
  match C.query_metrics client with
  | Ok j -> (
    let sessions =
      match Option.bind (J.member "sessions" j) J.to_list with Some l -> l | None -> []
    in
    match Option.map Mbr_obs.Metrics.snapshot_of_json (J.member "metrics" j) with
    | Some (Ok s) -> Ok (s, sessions)
    | Some (Error m) -> Error m
    | None -> Error "query-metrics without metrics")
  | Error e -> Error (Proto.error_code_to_string e.Proto.code)

let gauge (s : Mbr_obs.Metrics.snapshot) k =
  Option.value (List.assoc_opt k s.Mbr_obs.Metrics.gauges) ~default:0.0

(* [replay] names the session (0 .. connections x sessions_per_conn - 1)
   whose history is replayed in-process after the epoch. *)
let epoch ~mbrd ~dir ~seed ~len ~polls ~replay:sid ~traced ~sampled =
  let socket = Filename.concat dir "mbrd.sock" in
  (* the sessions and their programs are fixed; the seed orders the mix *)
  let load_seeds =
    Array.init connections (fun c -> Array.init sessions_per_conn (fun s -> 1 + (c * sessions_per_conn) + s))
  in
  let rng = Rng.create seed in
  let plans =
    Array.init connections (fun conn ->
        (* the connections share the epoch's polls *)
        let polls = (polls / connections) + if conn < polls mod connections then 1 else 0 in
        plan ~rng ~conn ~len ~polls)
  in
  let t0 = Clock.now_s () in
  let pid = spawn ~mbrd ~socket ~log:(Filename.concat dir "mbrd.log") ~traced ~sampled in
  (* whatever goes wrong, the daemon does not outlive the epoch *)
  let reaped = ref false in
  Fun.protect ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  let clients =
    Array.init connections (fun _ -> connect_retry socket (Clock.now_s () +. 60.0))
  in
  let setup_failures = ref [] in
  let setup_lock = Mutex.create () in
  let in_parallel f =
    let ths = Array.mapi (fun i c -> Thread.create (fun () -> f i c) ()) clients in
    Array.iter Thread.join ths
  in
  in_parallel (fun conn client ->
      for s = 0 to sessions_per_conn - 1 do
        let session = session_name ~conn s in
        let check what r =
          match expect_ok (what ^ " " ^ session) r with
          | Ok _ -> ()
          | Error m ->
            Mutex.lock setup_lock;
            setup_failures := m :: !setup_failures;
            Mutex.unlock setup_lock
        in
        check "load"
          (C.load client ~session ~profile:"tiny" ~seed:load_seeds.(conn).(s) ());
        check "warm-up recompose" (C.recompose client ~session ())
      done);
  let setup_s = Clock.now_s () -. t0 in
  let before = metrics_snapshot clients.(0) in
  let cursors = Array.init connections (fun _ -> ref None) in
  let results = Array.make connections None in
  let t1 = Clock.now_s () in
  in_parallel (fun conn client ->
      let replayed s = (conn * sessions_per_conn) + s = sid in
      results.(conn) <-
        Some (run_conn ~client ~conn ~cursor:cursors.(conn) ~replayed ~steps:plans.(conn)));
  let mix_s = Clock.now_s () -. t1 in
  let results = Array.map Option.get results in
  let after = metrics_snapshot clients.(0) in
  let failures = ref (List.rev !setup_failures) in
  Array.iter (fun r -> failures := !failures @ r.failures) results;
  (* served counts must equal what each client sent its sessions *)
  let delta, gc_delta =
    match (before, after) with
    | Ok (b, _), Ok (a, sessions) ->
      List.iter
        (fun sj ->
          let name = Option.value (Option.bind (J.member "name" sj) J.to_str) ~default:"" in
          let served = int_of_float (Option.value (num "served" sj) ~default:(-1.0)) in
          Scanf.sscanf_opt name "c%d-s%d" (fun c s -> (c, s))
          |> Option.iter (fun (c, s) ->
                 let sent = results.(c).sent.(s) in
                 if served <> sent then
                   failures :=
                     !failures @ [ Printf.sprintf "%s: served %d, sent %d" name served sent ]))
        sessions;
      let d = Mbr_obs.Metrics.Snapshot.diff ~base:b a in
      let gd =
        List.map (fun k -> (k, gauge a k -. gauge b k))
          [ "gc.minor_collections"; "gc.major_words"; "gc.major_collections"; "gc.compactions" ]
      in
      (d, gd)
    | Error m, _ | _, Error m ->
      failures := !failures @ [ "query-metrics: " ^ m ];
      ({ Mbr_obs.Metrics.counters = []; gauges = []; histograms = [] }, [])
  in
  let counter k = Option.value (List.assoc_opt k delta.Mbr_obs.Metrics.counters) ~default:0 in
  let n_zero = connections * sessions_per_conn in
  if counter "svc.overloaded" <> 0 then
    failures := !failures @ [ Printf.sprintf "%d overloaded answers" (counter "svc.overloaded") ];
  if counter "svc.errors" <> n_zero || counter "svc.cancelled" <> n_zero then
    failures :=
      !failures
      @ [
          Printf.sprintf "%d errors / %d cancelled, expected exactly the %d zero-deadline ones"
            (counter "svc.errors") (counter "svc.cancelled") n_zero;
        ];
  let trace =
    if traced then begin
      let path = Filename.concat (Sys.getcwd ()) (Filename.concat dir "mbrd-trace.json") in
      match C.export_trace clients.(0) ~path with
      | Ok _ ->
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Some (J.of_string s)
      | Error e ->
        failures := !failures @ [ "export-trace: " ^ e.Proto.message ];
        None
    end
    else None
  in
  let rss = peak_rss_mb pid in
  ignore (C.shutdown clients.(0));
  Array.iter C.close clients;
  ignore (Unix.waitpid [] pid);
  reaped := true;
  let replayed =
    let conn = sid / sessions_per_conn and s = sid mod sessions_per_conn in
    replay ~name:(session_name ~conn s) ~load_seed:load_seeds.(conn).(s)
      results.(conn).responses
  in
  failures := !failures @ replayed.r_problems;
  let rtts = List.concat_map (fun r -> r.rtts) (Array.to_list results) in
  {
    e_setup_s = setup_s;
    e_mix_s = mix_s;
    e_rtts = rtts;
    e_failures = !failures;
    e_failed = List.length !failures;
    e_regs = Array.fold_left (fun acc r -> acc + r.regs) 0 results;
    e_tns = Array.fold_left (fun acc r -> acc +. r.tns) 0.0 results;
    e_replay = replayed;
    e_rss_mb = rss;
    e_flows_ms = List.concat_map (fun r -> r.flows_ms) (Array.to_list results);
    e_queue_depth_max =
      Array.fold_left (fun acc r -> max acc r.queue_depth_max) 0 results;
    e_metrics_delta = delta;
    e_gc_delta = gc_delta;
    e_trace = trace;
  }
