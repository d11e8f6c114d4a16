(** The placement-aware candidate weight of §3.2.

    For a candidate MBR M with [b] total bits whose test polygon (the
    convex hull of its constituent registers' footprint corners)
    contains the centers of [n] foreign registers:

    {v w = 1/b          when n = 0        (clean: bigger is better)
       w = b * 2^n      when 0 < n < b    (intertwined: exponentially bad)
       w = infinity     when n >= b       (rejected outright) v}

    Singleton candidates — keeping an existing register as is, the
    paper's "Original" column in Fig. 3 — cost exactly 1 regardless of
    width: the objective counts registers, and only {e new} merges earn
    the 1/b discount.

    The blocker count [n] is read off a {!view}: one partition block's
    registers and the blocker-index entries around them, with member
    sets given as bit masks over the block's positions. *)

type view
(** One block's blocker view: every footprint corner of its registers,
    sorted once; the blocker entries as flat arrays of centres, each
    tagged with its block position when its cell is a block member; a
    hull buffer; and the per-mask memo of counts. It is mutable working
    state (buffer and memo) private to whoever built it. *)

val view :
  footprints:Mbr_geom.Rect.t array ->
  cids:Mbr_netlist.Types.cell_id array ->
  (Mbr_netlist.Types.cell_id * Mbr_geom.Point.t) list ->
  view
(** [view ~footprints ~cids entries]: the view of the registers at
    positions [0 .. n-1] (footprint and cell id of each) against the
    blocker entries [entries]. [entries] must hold every entry whose
    centre lies in the union bounding box of the footprints (every
    test polygon's bounding box lies inside it); entries outside it
    never count. Raises [Invalid_argument] when [n] exceeds
    [Sys.int_size - 1] (62 on 64-bit hosts: the widest mask that stays
    non-negative) or the arrays differ in length. *)

val blockers : view -> int -> int
(** [blockers v mask]: entries whose centre lies inside the test
    polygon of the registers at the set bits of [mask], not counting
    the members' own entries. An entry counts when it is in the
    polygon's closed bounding box and in the polygon itself, with the
    1e-9 tolerance of {!Mbr_geom.Hull.contains}. Counted once per mask,
    then memoised. *)

val lookups : view -> int
(** {!blockers} calls on this view so far. *)

val sets : view -> int
(** Distinct masks actually counted on this view so far. *)

val formula : bits:int -> blockers:int -> float
(** The three-case weight above (for multi-register candidates).
    Raises [Invalid_argument] when [bits <= 0]. *)

val candidate_weight :
  n_members:int -> bits:int -> blockers:int -> float
(** [formula] for [n_members >= 2]; exactly 1.0 for a singleton. *)
