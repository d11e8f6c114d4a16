(** Register compatibility (paper §2) and compatibility-graph
    construction (§3).

    A register is {e composable} when the designer has not pinned it
    (fixed / size-only) and its functional class has a strictly larger
    MBR in the library. Two composable registers are compatible — an
    edge of graph G — when all four checks pass:

    - {b functional}: same class, same clock net (hence same gating
      cone), same gating enable, same reset net;
    - {b scan}: same scan partition; ordered-section members only with
      members of the same section (their relative order survives inside
      one MBR's internal chain);
    - {b placement}: their timing-feasible regions overlap. A region is
      built per D/Q pin and intersected: a pin with positive slack may
      move up to slack/[delay_per_um] beyond the bounding box of its
      net's other pins; a violating pin restricts the cell to that
      bounding box itself (movement inside a net's bbox does not
      lengthen it to first order — the paper's rule for negative
      slack). The result is capped at [max_dist] displacement, and the
      cell's own footprint is always feasible, so immovable violators
      still participate as merge {e targets};
    - {b timing}: similar D slacks and similar Q slacks, and no
      opposite useful-skew pressure (one register wanting a later clock
      while the other needs an earlier one). *)

type config = {
  delay_per_um : float;
      (** ps of path-delay change per µm of movement (slack→distance) *)
  slack_margin : float;  (** ps of slack held back before converting *)
  max_dist : float;  (** µm cap on the feasible-region expansion *)
  slack_diff_limit : float;
      (** max |Δ D-slack| and |Δ Q-slack| between merge partners, ps *)
  viol_tolerance : float;
      (** ps of delay degradation tolerated on any path during
          composition — recovered by the useful-skew and sizing steps
          that immediately follow (Fig. 4) *)
}

val default_config : config

type reg_info = {
  cid : Mbr_netlist.Types.cell_id;
  bits : int;
  func_class : string;
  clock : Mbr_netlist.Types.net_id;
  enable : string option;
  reset : Mbr_netlist.Types.net_id option;
  scan : Mbr_netlist.Types.scan_info option;
  drive_res : float;
  d_slack : float;  (** worst slack over connected D pins *)
  q_slack : float;  (** worst slack over connected Q pins *)
  footprint : Mbr_geom.Rect.t;
  feasible : Mbr_geom.Rect.t;
  center : Mbr_geom.Point.t;
}

val is_composable :
  Mbr_netlist.Design.t ->
  Mbr_liberty.Library.t ->
  Mbr_netlist.Types.cell_id ->
  bool
(** Not fixed/size-only, and the library has a wider MBR in its class. *)

val reg_info :
  config -> Mbr_sta.Engine.t -> Mbr_netlist.Types.cell_id -> reg_info
(** Snapshot of the compatibility-relevant state of one placed
    register; slacks come from the engine's last analysis. Raises
    [Invalid_argument] on non-registers, [Not_found] when unplaced. *)

val functionally_compatible : reg_info -> reg_info -> bool

val scan_compatible : reg_info -> reg_info -> bool

val placement_compatible : reg_info -> reg_info -> bool

val timing_compatible : config -> reg_info -> reg_info -> bool

val compatible : config -> reg_info -> reg_info -> bool
(** Conjunction of the four checks. *)

type graph = {
  adj : Mbr_graph.Csr.t;  (** node i describes [infos.(i)] *)
  infos : reg_info array;  (** the composable registers *)
}
(** Frozen {e during allocation fan-out}, revised only {e between}
    fan-outs: neither the adjacency nor [infos] is written while the
    allocate stage shares the graph read-only across worker domains
    (the invariant documented in {!Allocate}). Between fan-outs an ECO
    session replaces the graph wholesale via {!refresh} — revision
    produces a fresh value, it never mutates one a worker might still
    hold. *)

val empty : graph
(** The graph over no registers: {!refresh} against it is a build from
    scratch. *)

type refresh_stats = {
  nodes_total : int;  (** composable registers in the new graph *)
  nodes_dirty : int;  (** nodes whose snapshot changed (or are new) *)
  pairs_checked : int;  (** [compatible] evaluations actually run *)
  edges_copied : int;  (** edges carried over from the previous graph *)
}

val refresh :
  ?config:config ->
  graph ->
  Mbr_sta.Engine.t ->
  Mbr_liberty.Library.t ->
  graph * refresh_stats
(** G over the composable, placed registers, built against the previous
    graph: the (cheap) per-register snapshots are recomputed, then the
    pair loop visits every spatial-hash neighbourhood pair — two
    feasible regions can only overlap when the footprint centers are
    within [2 * max_dist] plus the largest footprint dimension per axis,
    which sizes the hash bucket, so the loop is near-linear for
    clustered designs. A pair of registers whose snapshots equal their
    previous ones copies its verdict from the previous adjacency; every
    pair touching a changed, added or newly composable register runs
    the four checks. Removed, retyped and newly fixed registers drop out
    with their edges. Against {!empty} every register is dirty, so the
    same loop is the from-scratch build.

    Returns a new graph (the input is not mutated) that is structurally
    identical to a build from scratch on the same state: same node
    order (registers in ascending cell id), same edge set
    (property-tested, moves-only rounds included). [config] must match
    the one the previous graph was built with. Adds the returned stats
    to the [compat.nodes_dirty], [compat.pairs_checked] and
    [compat.edges_copied] counters. *)

val build_graph :
  ?config:config ->
  Mbr_sta.Engine.t ->
  Mbr_liberty.Library.t ->
  graph
(** [fst (refresh ?config empty eng lib)]. *)
