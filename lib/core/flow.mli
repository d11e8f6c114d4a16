(** The incremental MBR-composition flow of Fig. 4:

    placement snapshot → compatibility graph → K-partition → candidate
    enumeration + weights → ILP allocation → mapping → LP placement +
    legalization → netlist rewrite → useful skew → MBR sizing →
    metrics.

    Internally each arrow is a named stage function over one shared
    flow context (the inputs, the single incremental STA engine, and
    the stage-time accumulator). A persistent {!Session} holds the
    engine, the compat graph and the per-block solve cache, and
    {!Session.recompose} brings each of them up to date incrementally
    — [run] is just "open a session, recompose once". With
    [jobs >= 2] the allocation stage fans its per-block solves out
    over a {!Mbr_util.Pool} of domains, with results guaranteed
    identical to the serial order (see {!Allocate}); every other
    stage runs on the calling domain.

    The flow mutates the design and placement it is given; callers
    wanting a before/after comparison in hand get both metric bundles
    in the result. *)

type options = {
  allocate : Allocate.config;
  mode : [ `Ilp | `Greedy_share | `Clique ];
      (** allocator: exact ILP, the Fig. 6 greedy on the same weighted
          candidates, or the external clique heuristic *)
  jobs : int option;
      (** worker domains for the allocate fan-out, the one parallel
          stage; [None] (the default) is 1 = serial, and a count below 1
          is rejected. The frontends' [-j 0] resolves to
          {!Mbr_util.Pool.recommended_jobs} before it gets here. *)
  skew : Mbr_sta.Skew.config option;  (** None disables useful skew *)
  resize : bool;  (** false disables MBR sizing *)
  decompose : bool;
      (** split max-width MBRs first and let composition rebuild better
          groupings — the paper's §5 future work (off by default, as in
          the paper's experiments) *)
  corners : Mbr_sta.Corner.t array;
      (** timing corners the session's engine analyzes; every slack the
          flow consumes is the worst over this set (default:
          {!Mbr_sta.Corner.default}, single typical corner) *)
  recover : int;
      (** recovery-round budget per recompose: after composition, MBRs
          with negative worst-corner slack are decomposed (halves
          pinned) and the affected region re-enters
          partition→allocate→compose, up to this many rounds (default
          0 = loop off). {!Session.recompose}'s [?recover] overrides
          it per call. *)
}

val default_options : options

type progress = {
  pr_stage : string;
      (** the stage being entered, one of the [stage_times] names (a
          recovery round re-enters at ["decompose"]) *)
  pr_round : int;
      (** 0 for the main pass, n for the n-th recovery round *)
  pr_blocks_resolved : int;
      (** partition blocks solved so far, cumulative over the pass *)
  pr_blocks_total : int;
      (** partition blocks of the passes whose allocate stage has
          completed — 0 until the first allocate finishes *)
  pr_wns : float;
      (** worst-corner WNS (ps) as of the latest metrics pass;
          [Float.nan] before the first one *)
}
(** A progress heartbeat, delivered by {!Session.recompose}'s
    [on_progress] callback at every stage entry — what a server
    forwards to clients as out-of-band events during a long
    recompose. *)

type result = {
  before : Metrics.t;
  after : Metrics.t;
  n_split : int;  (** max-width MBRs decomposed before composition *)
  n_merges : int;  (** MBRs created *)
  n_regs_merged : int;  (** registers absorbed into them *)
  n_incomplete : int;  (** merges using an incomplete MBR *)
  n_resized : int;
  ilp_cost : float;
  n_blocks : int;
  n_candidates : int;
  all_optimal : bool;
  alloc_jobs : int;  (** worker domains the allocate stage ran with *)
  alloc_block_times : Allocate.time_stats;
      (** per-block solve-time histogram of the allocate stage
          (max/mean/total seconds); [max_s] is the parallel critical
          path, [total_s] the serial-equivalent work *)
  skew_report : Mbr_sta.Skew.report option;
  new_mbrs : Mbr_netlist.Types.cell_id list;
  runtime_s : float;
      (** duration of the pass's ["flow.recompose"] trace span — same
          monotonic clock, same two reads, so an exported Chrome trace
          and this field can never disagree. {!Session.create}'s graph
          build and initial analysis lie outside it. *)
  stage_times : (string * float) list;
      (** seconds per stage, in execution order: "eco-reset",
          "metrics-before", "decompose", "compat-graph",
          "blocker-index", "allocate", "merge", "scan-restitch",
          "skew", "resize", "metrics-after". Each entry is the duration
          of that stage's trace span (see {!Mbr_obs.Trace}) — derived
          from the trace clock, not a second [gettimeofday] pair.
          "eco-reset" refreshes the engine with the edits since the
          last pass and zeroes the useful skew that pass applied, so on
          a from-scratch {!run} it does no timing work. *)
  sta_full_builds : int;
      (** full STA graph constructions over the whole session: 1 (the
          initial build) unless an edit batch forced {!Mbr_sta.Engine.refresh}
          to fall back to a rebuild *)
  sta_refreshes : int;
      (** STA updates that took the incremental path *)
  eco_blocks_resolved : int;
      (** partition blocks actually solved by this run/recompose *)
  eco_blocks_reused : int;
      (** partition blocks spliced in from the session's solve cache —
          0 for a from-scratch [run], > 0 when a recompose found blocks
          the ECO left untouched *)
  recover_rounds : int;
      (** recovery rounds this pass actually ran: 0 when the budget was
          0 or every new MBR was already clean in every corner *)
  recover_splits : int;
      (** violating MBRs decomposed across all recovery rounds *)
  cancelled : bool;
      (** the recompose's cancellation token tripped at some point
          while it ran: the pass still completed every stage and the
          result is complete and feasible, but the allocation may hold
          unproven incumbents and the skew sweep may have stopped
          early. Always [false] when no token was passed. *)
}

(** A persistent composition session for ECO workflows.

    Open a session once over a design/placement/library, then mutate
    the design and placement freely through their normal editing APIs
    (move cells, add/remove/retype registers, rewire nets) and call
    {!Session.recompose} after each batch. The session owns the
    derived structures that pay to carry across passes — the
    incremental STA engine, the compatibility graph, the per-block
    allocation cache and the QoR metrics state — and [recompose]
    brings each one up to date incrementally:

    - the STA engine via {!Mbr_sta.Engine.refresh}, which reads the
      design's edit log and the placement's net stamps, after zeroing
      the useful skew a previous recompose applied (a from-scratch run
      starts skewless, so a recompose must too);
    - the compat graph via {!Compat.refresh} — only pairs touching a
      register whose snapshot (slacks, feasible region, attributes,
      position) changed are re-checked;
    - the allocation via {!Allocate.run_cached} — blocks of the
      K-partition whose content hash is unchanged are spliced in from
      the cache and only blocks intersecting the dirty region are
      re-solved;
    - the metrics-before and metrics-after snapshots via
      {!Metrics.collect} on the session's {!Metrics.state}, created with
      the session: the routing and power estimates re-sweep only the
      nets whose {!Mbr_place.Placement.net_stamp} moved since the
      previous snapshot, and every field equals a fresh sweep's by its
      bits.

    The blocker spatial index (every live placed register's center) is
    indexed afresh every pass.

    Each [recompose] is property-tested equivalent to a from-scratch
    {!run} on the same mutated inputs (same register count, ILP cost,
    WNS/TNS).

    {b Ownership.} The session is one mutable value with no internal
    locking; at most one domain may drive it at a time (the
    single-writer discipline). The discipline is explicit: a domain
    {!acquire}s the session (a CAS on the owner field, so two domains
    can never both hold it), drives it through any number of edits and
    recomposes, and {!release}s it — after which any other domain may
    acquire it. Nothing in the state pins a session to the domain that
    created it, so sessions are movable: a service can park hundreds of
    them and hand each to whichever worker domain serves its next
    request. {!recompose} on an unowned session claims it for just
    that call, keeping plain single-threaded use ceremony-free. *)
module Session : sig
  type t

  val create :
    ?options:options ->
    design:Mbr_netlist.Design.t ->
    placement:Mbr_place.Placement.t ->
    library:Mbr_liberty.Library.t ->
    sta_config:Mbr_sta.Engine.config ->
    unit ->
    t
  (** Builds and analyzes the STA engine (the session's one full graph
      construction and analysis); everything else is materialized
      lazily by the first {!recompose} (the metrics state starts
      empty, so that recompose's first snapshot sweeps every net). Raises [Invalid_argument] when
      [placement] was not built over [design] or [options.jobs] is
      below 1. *)

  val recompose :
    ?cancel:Mbr_util.Cancel.t ->
    ?recover:int ->
    ?on_progress:(progress -> unit) ->
    t ->
    result
  (** Run the composition pipeline over the current design/placement
      state, reusing everything the design's edit log and the
      placement's net stamps prove untouched. The
      first call is exactly {!run}; later calls report
      [eco_blocks_reused] > 0 whenever the ECO left partition blocks
      clean.

      [recover] overrides [options.recover] for this call: after the
      main pass, while some splittable MBR (composed by any pass, or
      multi-bit in the input design) has negative worst-corner slack
      and rounds remain, the violators are decomposed with
      {!Decompose.split_cells}[ ~pin:true] (the halves
      can be resized but never re-composed, so rounds are monotone)
      and the pipeline re-enters at the compat graph. Each round rides
      the session's incrementality — only blocks the splits dirtied
      re-solve. Accumulated counts land in [recover_rounds] /
      [recover_splits]; [after] is the final post-recovery snapshot.

      Requires the session to be owned by the calling domain or
      unowned (then it is claimed for the duration of the call);
      raises [Invalid_argument] when another domain holds it.

      [on_progress] fires synchronously on the calling domain at
      every stage entry (main pass and recovery rounds alike) with
      the cumulative {!progress} state. The callback must be cheap
      and must not touch the session; an exception it raises aborts
      the recompose.

      [cancel] reaches the two open-ended stages — the per-block
      branch-and-bound ({!Allocate.run_cached}) and the skew sweep
      ({!Mbr_sta.Skew.optimize}). A tripped token never aborts the
      pass: every stage still runs, the solvers fall back to their
      incumbents, the result reports [cancelled = true], and the
      session remains fully consistent — the next recompose behaves as
      if this one had simply used a smaller node budget (the solve
      cache keeps its previous generation rather than memoizing
      time-dependent incumbents). *)

  (** {2 Ownership} *)

  val try_acquire : t -> bool
  (** Claim the session for the calling domain: [true] when the domain
      now holds it (re-acquiring one's own session succeeds), [false]
      when another domain does. *)

  val acquire : t -> unit
  (** {!try_acquire}, raising [Invalid_argument] on failure. *)

  val release : t -> unit
  (** Give the session up so another domain can acquire it. Raises
      [Invalid_argument] when the calling domain does not hold it —
      releasing somebody else's session is always a bug. *)

  val owner_id : t -> int option
  (** Domain id currently holding the session, [None] when unowned.
      For diagnostics and assertions; racing a decision on it is what
      {!try_acquire} is for. *)

  val design : t -> Mbr_netlist.Design.t

  val placement : t -> Mbr_place.Placement.t

  val engine : t -> Mbr_sta.Engine.t
  (** The session's STA engine — shared with the caller for slack
      queries between recomposes; do not [set_skew] behind the
      session's back. *)

  val recomposes : t -> int
  (** Completed {!recompose} calls. *)

  val set_corners : t -> Mbr_sta.Corner.t array -> unit
  (** Swap the corner set the session's engine analyzes and re-analyze
      under it (see {!Mbr_sta.Engine.set_corners}); the next recompose
      measures everything under the new set. Raises [Invalid_argument]
      on an empty set. *)

  val last_compat_stats : t -> Compat.refresh_stats option
  (** Dirtiness accounting of the most recent compat-graph pass; [None]
      before the first {!recompose}, whose pass counts every register
      dirty (it refreshes against {!Compat.empty}). *)
end

val run :
  ?options:options ->
  design:Mbr_netlist.Design.t ->
  placement:Mbr_place.Placement.t ->
  library:Mbr_liberty.Library.t ->
  sta_config:Mbr_sta.Engine.config ->
  unit ->
  result
(** [Session.create] + one [Session.recompose]: the one-shot flow.
    Raises [Invalid_argument] when [placement] was not built over
    [design] (the two would silently drift apart mid-flow otherwise)
    or [options.jobs] is below 1. *)
