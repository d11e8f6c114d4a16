(* mbrd — the ECO-service daemon.

   Holds many named Flow.Sessions behind a line-delimited JSON protocol
   on a Unix-domain socket and serves load / perturb / recompose /
   set-corners / query-metrics / export-trace / telemetry / shutdown.
   See DESIGN.md §14 for the protocol and the concurrency
   architecture. *)

open Cmdliner
module S = Mbr_service.Server

let run socket workers queue_limit alloc_jobs trace log_level prom_file
    sample_period no_session_metrics flight_capacity =
  Mbr_obs.Log.setup ~level:log_level ();
  Mbr_obs.Metrics.enable ();
  (* tracing is opt-in: per-domain ring buffers are bounded
     (Trace.default_capacity), but recording still costs per event *)
  if trace then Mbr_obs.Trace.enable ();
  Printf.eprintf "mbrd: serving on %s\n%!" socket;
  (match prom_file with
  | Some f -> Printf.eprintf "mbrd: prometheus exposition at %s\n%!" f
  | None -> ());
  S.run
    {
      S.socket_path = socket;
      workers;
      queue_limit;
      alloc_jobs;
      session_metrics = not no_session_metrics;
      sample_period_s = sample_period;
      prom_file;
      flight_capacity;
      handle_sigusr2 = true;
    };
  Printf.eprintf "mbrd: drained, exiting\n%!"

let () =
  Mbr_util.Runtime.tune ();
  let socket_arg =
    Arg.(value & opt string S.default_config.S.socket_path
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let count = Arg.conv' ~docv:"N" (Mbr_util.Pool.parse_jobs, Format.pp_print_int) in
  let workers_arg =
    Arg.(value & opt count S.default_config.S.workers
         & info [ "workers" ] ~docv:"N"
             ~doc:"Executor worker domains (0 = auto-detect cores).")
  in
  let queue_limit_arg =
    Arg.(value & opt int S.default_config.S.queue_limit
         & info [ "queue-limit" ] ~docv:"N"
             ~doc:"Pending requests per session before overloaded.")
  in
  let alloc_jobs_arg =
    Arg.(value & opt count S.default_config.S.alloc_jobs
         & info [ "alloc-jobs" ] ~docv:"N"
             ~doc:"Nested allocate fan-out per recompose (default 1; 0 = \
                   auto-detect cores).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Record spans so export-trace has something to write.")
  in
  let log_level_arg =
    let level =
      Arg.conv ~docv:"LEVEL"
        ( Mbr_obs.Log.level_of_string,
          fun ppf l -> Format.pp_print_string ppf (Logs.level_to_string l) )
    in
    Arg.(value & opt level (Some Logs.Warning) & info [ "log-level" ]
           ~docv:"LEVEL" ~doc:"quiet, error, warning, info or debug.")
  in
  let prom_file_arg =
    Arg.(value & opt (some string) None & info [ "prom-file" ] ~docv:"PATH"
           ~doc:"Atomically rewrite $(docv) in Prometheus text format every \
                 sampler tick (point a node_exporter textfile collector or \
                 file scraper at it).")
  in
  let sample_period_arg =
    Arg.(value & opt float S.default_config.S.sample_period_s
         & info [ "sample-period" ] ~docv:"SECONDS"
             ~doc:"Background sampler period for GC/RSS/queue-depth gauges \
                   (0 disables unless --prom-file forces it at 1s).")
  in
  let no_session_metrics_arg =
    Arg.(value & flag & info [ "no-session-metrics" ]
           ~doc:"Skip per-session labeled metric series (bounds registry \
                 growth under heavy session churn).")
  in
  let flight_capacity_arg =
    Arg.(value & opt int S.default_config.S.flight_capacity
         & info [ "flight-capacity" ] ~docv:"N"
             ~doc:"Flight-recorder ring size: last N request digests, \
                   dumped by SIGUSR2 or telemetry {flight:true} (0 \
                   disables).")
  in
  let info =
    Cmd.info "mbrd" ~version:"1.0.0"
      ~doc:"concurrent multi-session MBR-composition ECO daemon"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(const run $ socket_arg $ workers_arg $ queue_limit_arg
                $ alloc_jobs_arg $ trace_arg $ log_level_arg $ prom_file_arg
                $ sample_period_arg $ no_session_metrics_arg
                $ flight_capacity_arg)))
