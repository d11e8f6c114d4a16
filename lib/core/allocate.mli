(** MBR allocation: K-partition the compatibility graph (bound 30,
    §3), enumerate candidates per block, and pick the winning subset.

    Three allocators:
    - [`Ilp]: the paper's weighted set-partitioning ILP (§3.1), solved
      exactly per block by {!Mbr_ilp.Set_partition};
    - [`Greedy_share]: greedy weighted set partitioning over the {e
      same} candidates and weights (best weight-per-register first) —
      the Fig. 6 comparison, isolating what exact optimization buys;
    - [`Clique]: the external [8]/[12]-style maximal-clique merging
      heuristic ({!Baseline}), which ignores the weights entirely.

    Every composable register is covered exactly once: either by a
    selected merge or by its singleton.

    {2 The per-block pipeline}

    The §3 formulation is independent per partition block, so the
    allocator is structured as pure block-scoped pieces:

    {v blocks  = Kpart.partition graph               (serial)
       results = map (solve_block graph ...) blocks  (serial or pooled)
       selection = reduce results                    (serial) v}

    {b Read-only sharing invariant.} [solve_block] only {e reads} the
    inputs it shares with its siblings — [graph] (both [infos] and the
    adjacency), the library, and the blocker entries queried from the
    blocker index before the fan-out. None of those are written {e
    during the fan-out}: the compat graph is frozen while
    blocks are being solved and revised only between fan-outs (an ECO
    session swaps in a fresh value from {!Compat.refresh}, it never
    mutates one in place), the library is immutable, and the blocker
    index is fully reconciled before {!run_cached} is called and
    untouched until it returns. Everything [solve_block] mutates (hash tables,
    refs, the branch-and-bound state) is created inside the call. This
    is what makes it legal to fan the blocks out over a
    {!Mbr_util.Pool} of domains, and it must be preserved by future
    changes (see also the notes on {!Candidate.iter}, where each
    block's {!Weight.view} is built, and {!Spatial.query_rect}).

    {b Determinism.} Results are stored by block index and [reduce]
    folds them in block order, performing exactly the additions and
    list consing the serial loop performed — so the selection
    (merges, kept, cost, counts) is bit-identical for every [jobs]
    value, and [jobs = 1] takes the serial code path outright (no
    domain is spawned, no pool is entered). *)

type config = {
  candidate : Candidate.config;
  partition_bound : int;
      (** default 30; {!run_cached} accepts 1 ..
          {!Candidate.max_block_size} *)
}

val default_config : config

type block_result = {
  chosen : Candidate.t list;  (** the block's cover, merges and singletons *)
  block_cost : float;  (** ILP objective over [chosen] *)
  optimal : bool;  (** proven optimal (only ever true for [`Ilp]) *)
  block_candidates : int;  (** candidates enumerated for this block *)
  solve_time_s : float;  (** wall time of this block's solve *)
}

type time_stats = {
  total_s : float;  (** sum of per-block solve times *)
  mean_s : float;  (** 0 when there are no blocks *)
  max_s : float;  (** the slowest block — the parallel critical path *)
}

type selection = {
  merges : Candidate.t list;  (** selected multi-register candidates *)
  kept : int list;  (** graph nodes kept as they are *)
  cost : float;  (** ILP objective over all blocks *)
  n_blocks : int;
  n_candidates : int;  (** enumerated across all blocks *)
  all_optimal : bool;
      (** every block solved to proven optimality; only the [`Ilp] mode
          can ever claim this — the heuristic modes report [false] *)
  block_times : time_stats;
      (** per-block solve-time histogram; the only field of the
          selection that is {e not} bit-identical across [jobs]
          settings (it measures, it does not decide) *)
}

val solve_block :
  ?block_id:int ->
  ?mode:[ `Ilp | `Greedy_share | `Clique ] ->
  ?cancel:Mbr_util.Cancel.t ->
  config ->
  Compat.graph ->
  lib:Mbr_liberty.Library.t ->
  blockers:(Mbr_netlist.Types.cell_id * Mbr_geom.Point.t) list ->
  block:int list ->
  block_result
(** Enumerate and solve one partition block; [blockers] is the block's
    {!Candidate.blockers}. Pure with respect to its arguments (reads
    only — see the sharing invariant above); safe to call concurrently
    from multiple domains on the same graph. Raises [Invalid_argument]
    on a block of more than {!Candidate.max_block_size} nodes.

    Each call runs under an ["alloc.solve_block"] trace span carrying
    the block id ([block_id], default [-1]; {!run_cached} passes the
    block's array index), size and mode; [solve_time_s] is
    the span's own duration, and it also feeds the
    [alloc.block_solve_s] histogram.

    The [`Ilp] branch-and-bound visits at most 300,000 nodes per
    block. [cancel] reaches it (see
    {!Mbr_ilp.Set_partition.solve}): a tripped token makes the solve
    return its current incumbent cover, still exact, just unproven
    ([optimal = false]). The heuristic modes ignore it — they are
    already a single cheap pass. *)

val reduce :
  mode:[ `Ilp | `Greedy_share | `Clique ] -> block_result array -> selection
(** Deterministic merge of per-block results, in block (array) order.
    Exposed for tests and for callers that run [solve_block]
    themselves. *)

(** {2 The allocator, with block-level result reuse (ECO sessions)} *)

type cache
(** Memo of solved blocks keyed by a content hash of everything
    [solve_block] reads about a block: the mode, the candidate
    knobs, the member register snapshots in block order, the in-block
    adjacency (as member positions), and the blocker-index entries
    inside the union bounding box of the member footprints — the
    superset of what any weight query for the block can observe. Cache
    hits are therefore exact: the cached cover is what [solve_block]
    would recompute, modulo node renumbering (undone via the stable
    cell ids). One cache must only ever be used with one library value.
    Not domain-safe; owned and driven by the session's leader domain. *)

val create_cache : unit -> cache

val cache_size : cache -> int
(** Entries currently held (= blocks of the last [run_cached]). *)

type cache_stats = {
  blocks_resolved : int;  (** blocks actually solved this run *)
  blocks_reused : int;  (** blocks spliced in from the cache *)
}

val run_cached :
  ?mode:[ `Ilp | `Greedy_share | `Clique ] ->
  ?config:config ->
  ?jobs:int ->
  ?cancel:Mbr_util.Cancel.t ->
  cache ->
  Compat.graph ->
  lib:Mbr_liberty.Library.t ->
  blocker_index:Mbr_netlist.Types.cell_id Spatial.t ->
  selection * cache_stats
(** [partition → solve_block per block → reduce], where blocks whose
    content hash matches the cache's previous run are spliced in and
    only the rest are solved. With [jobs >= 2] the solves fan out over
    a {!Mbr_util.Pool} of that many domains; [jobs = 1] (the default)
    solves them serially on the calling domain. The splice happens
    before the deterministic {!reduce}, so the selection is identical
    to a run on a fresh cache over the same inputs, at any [jobs]
    (property-tested). The cache is then swapped to exactly this run's
    blocks (generational eviction), so entries for regions the design
    drifted away from are dropped. The one observable difference: a
    reused block reports its original [solve_time_s], so [block_times]
    measures solve cost, not this run's wall time.

    The same [cancel] token is handed to every block solve (its flag is
    an atomic, so the pool workers all see one {!Mbr_util.Cancel.cancel}
    at their next search node): a cancelled run still returns a
    complete, feasible selection — each in-flight block falls back to
    its incumbent, remaining blocks return their greedy seed almost
    immediately (blocks whose incumbent meets the root LP bound never
    search at all and stay proven optimal).

    Each block's blocker entries are queried once ({!Candidate.blockers})
    and serve both its cache key and its solve. Raises
    [Invalid_argument] when [config.partition_bound] is outside 1 ..
    {!Candidate.max_block_size}: a block wider than a bit mask cannot
    be enumerated.

    Hits and misses also bump the [alloc.cache.hit] /
    [alloc.cache.miss] registry counters (the same split this function
    returns as {!cache_stats}, accumulated across rounds).

    A run whose [cancel] token tripped leaves the cache generation {e
    unswapped}: cancelled incumbents depend on where in time the token
    tripped, and a cached entry must stay the deterministic result for
    its key — the next uncancelled run rebuilds the generation. *)
