(** The [mbrd] daemon: many named {!Mbr_core.Flow.Session}s behind one
    Unix-domain socket.

    Architecture (DESIGN.md §14):

    - one {b accept loop} on the calling thread, spawning a reader
      thread per connection;
    - {b reader threads} parse lines, answer the cheap global verbs
      (query-metrics, export-trace, shutdown) inline, and enqueue
      session verbs (load, perturb, recompose) onto the target
      session's bounded queue — a full queue is answered [overloaded]
      immediately (explicit backpressure, the client retries);
    - a request line is at most 1 MiB: a longer one is skipped to its
      newline and answered [bad-request] with id -1, and the
      connection keeps serving;
    - a shared {!Mbr_util.Pool.Executor} of worker domains drains the
      session queues, {b one in-flight request per session} (the
      single-writer discipline: the worker holds the
      {!Mbr_core.Flow.Session} via [acquire]/[release] for the
      request's duration, and the session moves freely between worker
      domains across requests);
    - a recompose with a [timeout_s] runs under a
      {!Mbr_util.Cancel} token: past the deadline the solvers wind
      down to their incumbents and the request is answered
      [cancelled] — the session stays consistent and serves the next
      request.

    Observability: every request is a ["svc.<verb>"] trace span on the
    domain that served it, and its receipt-to-response latency feeds
    the labeled [svc.latency_s{verb=...}] histogram family
    ([svc.requests], [svc.errors], [svc.overloaded], [svc.cancelled]
    count traffic). With [session_metrics] on (the default), each
    session also gets its own labeled series
    ([svc.session.requests{session=...}],
    [flow.session.blocks_resolved{session=...}],
    [svc.session.wns{session=...,corner=...}], ...), and the
    [telemetry] verb serves cursor-stamped snapshots/deltas plus
    per-session status (including the in-flight recompose's latest
    progress heartbeat). A recompose sent with [progress: true]
    streams out-of-band progress event lines on its connection,
    strictly before the final response. Every answered request also
    lands in a bounded in-memory {b flight recorder} (last
    [flight_capacity] request digests), dumped via
    [telemetry {flight: true}] or — when [handle_sigusr2] — to stderr
    on SIGUSR2.

    Shutdown (the verb) stops accepting, drains every queued request,
    joins the workers, stops the sampler (final tick included, so a
    [prom_file] reflects the drained state) and removes the socket
    file. *)

type config = {
  socket_path : string;
  workers : int;  (** executor domains; 0 = {!Mbr_util.Pool.recommended_jobs} *)
  queue_limit : int;  (** pending requests per session before [overloaded] *)
  alloc_jobs : int;
      (** each session's {!Mbr_core.Flow.options} [jobs]: the fan-out
          inside a recompose's allocate stage (0 as for [workers]).
          Default 1:
          with many concurrent sessions the executor already uses the
          machine; nested fan-out only helps a lone giant session. *)
  session_metrics : bool;
      (** register per-session labeled series (default [true]; turn off
          to bound registry growth under hostile session churn) *)
  sample_period_s : float;
      (** {!Mbr_obs.Sampler} period; [<= 0] disables the sampler
          unless [prom_file] forces it (at 1 s) *)
  prom_file : string option;
      (** atomically rewrite this file in Prometheus text format every
          sampler tick *)
  flight_capacity : int;  (** flight-recorder ring size; [0] disables *)
  handle_sigusr2 : bool;
      (** install a SIGUSR2 handler that dumps the flight recorder to
          stderr (opt-in: embedders may own their signals) *)
}

val default_config : config
(** [{socket_path = "mbrd.sock"; workers = 0; queue_limit = 32;
    alloc_jobs = 1; session_metrics = true; sample_period_s = 0.0;
    prom_file = None; flight_capacity = 256;
    handle_sigusr2 = false}] *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Bind the socket (replacing a stale file), call [on_ready] once
    accepting (test/launcher synchronization), and serve until a
    [shutdown] request arrives. Returns after the full drain: accepted
    requests are answered, worker domains joined, socket unlinked, and
    the connections clients still hold open ended (their input is shut
    down; responses already written are delivered).
    Raises [Invalid_argument] on a negative [workers] or [alloc_jobs]
    and [Unix.Unix_error] if the socket cannot be bound. *)
