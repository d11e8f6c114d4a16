(** Candidate-MBR enumeration (§3): the valid cliques of a partition
    block of the compatibility graph.

    Blocks of at most 13 nodes have every clique enumerated by ordered
    DFS (equivalent to sub-clique enumeration of the Bron–Kerbosch
    maximal cliques, but with the validity prunes applied {e during}
    the walk):

    - total bits never exceed the widest library MBR of the class;
    - the running intersection of feasible regions stays non-empty
      (there must be somewhere to put the merged MBR);
    - extension is ordered by distance from the running centroid, and a
      per-block candidate cap ([max_per_block]) keeps the walk
      tractable.

    Larger blocks take the structured path instead, which emits the
    groups that can win the ILP: a blocker-aware nearest-first chain
    from every seed (all prefixes), four greedy disjoint tilings of the
    block, every compatible pair, and every pair extended by its
    nearest common neighbour. It is bounded by construction — at most
    a chain per seed, four tilings and the pairs and triples — so
    [max_per_block] does not apply to it. Both paths emit each member
    set once.

    A clique is a valid candidate when its bit total matches a library
    width exactly, or — when incomplete MBRs are enabled — rounds up to
    the next width while passing the paper's two area rules (area/bit
    below the members' average, and total area within the configured
    overhead of the replaced area). Singletons ("keep this register")
    are always valid and cost exactly 1. *)

type config = {
  allow_incomplete : bool;
  incomplete_area_overhead : float;
      (** e.g. 0.05: incomplete cell area <= (1+5%) × replaced area (§5) *)
  max_per_block : int;
      (** cap on the DFS path's visited cliques (default 6_000); the
          structured path is bounded by construction *)
  use_weights : bool;
      (** false = ablation: every merge weighs 1/bits, blockers ignored *)
}

val default_config : config

type t = {
  members : int list;  (** graph-node indices, ascending *)
  member_cids : Mbr_netlist.Types.cell_id list;
  bits : int;  (** connected bits (the paper's b_i) *)
  target_bits : int;  (** library width the candidate maps to *)
  incomplete : bool;
  weight : float;
  region : Mbr_geom.Rect.t;  (** common timing-feasible region *)
  func_class : string;
}

val is_singleton : t -> bool

val max_block_size : int
(** [Sys.int_size - 1] (62 on 64-bit hosts): the largest block {!iter}
    accepts, since a member set is a bit mask over block positions. *)

val blockers :
  Compat.graph ->
  block:int list ->
  Mbr_netlist.Types.cell_id Spatial.t ->
  (Mbr_netlist.Types.cell_id * Mbr_geom.Point.t) list
(** [blockers graph ~block index]: the entries of [index] in the
    closed union bounding box of the block's footprints — every entry
    any of the block's test polygons can contain (a test polygon is a
    hull of member footprint corners). One {!Spatial.query_rect}. *)

val iter :
  config ->
  Compat.graph ->
  block:int list ->
  lib:Mbr_liberty.Library.t ->
  blockers:(Mbr_netlist.Types.cell_id * Mbr_geom.Point.t) list ->
  (t -> unit) ->
  unit
(** Streams the candidates of one partition block (node ids refer to
    the full graph; the block is a set, repeats are ignored) to the
    callback, each exactly once, without materializing the set.
    [blockers] is the block's {!blockers} (a superset does as well).
    Consumers that fold candidates into their own structures (the ILP
    problem builder) should use [iter] directly; {!enumerate} is this
    with a list accumulator.

    Weights come from one {!Weight.view} of the block, built here when
    [use_weights] is set: each member set's blockers are counted once
    and memoised by mask, whether the set is scored as a chain
    extension or emitted. Peak memory is the per-block dedup table,
    the view and its memo (one entry per distinct member set counted),
    not the candidate list. Each call adds its view's {!Weight.lookups}
    and {!Weight.sets} to the [alloc.weight.lookups] and
    [alloc.weight.sets] counters once, at the end.

    Raises [Invalid_argument] on a block of more than
    {!max_block_size} nodes.

    {b Domain safety:} [iter] only reads [graph], [lib] and
    [blockers]; all of its working state (the view with its hull
    buffer and memo, the DFS frontier, seen sets, tiling cover masks)
    is allocated per call. Concurrent calls from multiple domains on
    the same inputs are safe as long as nobody mutates those inputs —
    the read-only sharing invariant documented in {!Allocate}. *)

val enumerate :
  config ->
  Compat.graph ->
  block:int list ->
  lib:Mbr_liberty.Library.t ->
  blockers:(Mbr_netlist.Types.cell_id * Mbr_geom.Point.t) list ->
  t list
(** Materialized {!iter}, in emission order; weights of infinity are
    filtered out. *)
