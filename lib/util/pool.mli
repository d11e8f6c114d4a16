(** Fixed-size domain pool for embarrassingly parallel fan-out.

    [map_array ~jobs f tasks] applies [f] to every element of [tasks]
    and returns the results in task order. With [jobs = 1] (or at most
    one task) it is exactly [Array.map f tasks] on the calling domain —
    no domain is ever spawned, so a serial configuration pays nothing
    and behaves identically to hand-written serial code. With
    [jobs >= 2] it spawns [min (jobs - 1) (n - 1)] worker domains; the
    calling domain works too, so [jobs] is the total parallelism.

    Work distribution is an atomic index over the task array: each
    worker repeatedly claims the next task (one at a time — the tasks
    this repo fans out are coarse, like per-block ILP solves). Every
    result lands in the slot of its task index, so the output is
    deterministic and independent of scheduling.

    [order], when given, is a permutation of the task indices naming
    the order in which tasks are {e claimed} — longest-first
    scheduling, for instance, shortens the tail of a skewed fan-out.
    It changes only which domain runs which task when: results stay in
    task-index slots, so the returned array is byte-for-byte the same
    with or without it, and the serial ([jobs = 1]) path ignores it
    entirely (after validating it, so a bad permutation never hides
    behind a serial configuration).

    [f] must be safe to call from multiple domains at once: it may
    freely mutate state it creates itself, but anything reachable from
    the shared [tasks] (or captured by [f]'s closure) must only be
    read. All callers in this repo uphold that by construction — see
    the read-only sharing invariant in [Mbr_core.Allocate].

    If any call to [f] raises, the pool stops handing out new tasks,
    the remaining workers drain, and the first exception (in claim
    order) is re-raised on the calling domain with its original
    backtrace.

    Telemetry: when the observability layer is enabled, every worker
    stint (spawned domains and the calling domain's) is a
    [Mbr_obs.Trace] span named ["pool.worker"], so spans recorded
    inside [f] nest under the worker lane of the domain that ran them;
    the [pool.maps] / [pool.tasks] counters record the
    fan-out. All of it is no-op when [Mbr_obs] is disabled, and the
    [jobs = 1] serial path is never instrumented at all. *)

val recommended_jobs : unit -> int
(** The runtime's parallelism estimate
    ({!Domain.recommended_domain_count}), never below 1. *)

val resolve_jobs : int -> (int, string) result
(** The one meaning of a jobs count: 0 is {!recommended_jobs},
    [n >= 1] is [n], and a negative count is an [Error] naming the
    rule. *)

val parse_jobs : string -> (int, string) result
(** {!resolve_jobs} on a decimal count: the parser of every frontend
    option that sets one ([mbrc -j], [mbrd --alloc-jobs],
    [mbrd --workers]), so a bad count is a usage error. *)

val map_array :
  ?order:int array -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** See above. Raises [Invalid_argument] when [jobs < 1] or [order] is
    not a permutation of the task indices. *)

(** Long-lived worker domains draining a shared job queue.

    {!map_array} spawns and joins domains per fan-out, which is right
    for one large batch but wrong for a service handling a steady
    stream of independent requests — domain spawn is milliseconds, and
    a daemon must bound its domain count regardless of load. An
    executor spawns its workers once; {!submit} then costs one
    mutex-protected queue push.

    Jobs are [unit -> unit] thunks and run in submission order
    (FIFO), picked up by whichever worker frees first. A job that
    raises is counted ([pool.exec.failed]), reported on stderr and
    swallowed — a bad job must not kill a shared worker. Anything a
    job touches must be safe to reach from the worker's domain; the
    serialized-session discipline of [Mbr_service] is the canonical
    way to uphold that.

    Telemetry: each worker's lifetime is a ["pool.exec.worker"] trace
    span (so per-job spans nest under the lane of the domain that ran
    them), and [pool.exec.submitted] / [.completed] / [.failed] count
    the traffic. *)
module Executor : sig
  type t

  val create : workers:int -> unit -> t
  (** Spawn [workers] domains (a frontend's count goes through
      {!resolve_jobs} first); raises [Invalid_argument] when [< 1].
      Remember that each worker is an OS-level domain: one executor
      per process, sized to the machine, shared by all sessions — not
      one per request source. *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a job. Never blocks (the queue is unbounded here;
      backpressure belongs to the caller, which knows its per-source
      limits — see [Mbr_service.Server]). Raises [Invalid_argument]
      after {!shutdown}. *)

  val shutdown : t -> unit
  (** Stop accepting jobs, drain everything already queued, and join
      the worker domains. Blocks until the drain completes; accepted
      jobs are never dropped. Idempotent — concurrent callers race to
      be the one that joins, the rest return once stopping is set. *)

  val workers : t -> int

  val queue_depth : t -> int
  (** Jobs accepted but not yet picked up by a worker — a telemetry
      gauge (one mutex-protected [Queue.length]); by the time the
      caller reads the value it may already have moved. *)
end
