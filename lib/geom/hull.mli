(** Convex hulls and convex-polygon containment, in reusable buffers.

    The paper's weight heuristic (§3.2) builds, for every candidate MBR,
    the convex hull of the corner points of its constituent registers and
    counts foreign registers whose center lies inside that "test
    polygon". A candidate enumeration scores tens of thousands of such
    polygons, so a hull lives in a buffer that each build overwrites:
    no lists, no per-build allocation. A buffer is mutable state: use
    one per domain. *)

type t

val create : int -> t
(** [create n]: a buffer for hulls of at most [n] input points. *)

val of_sorted : t -> float array -> float array -> int -> unit
(** [of_sorted h xs ys n] replaces [h]'s hull with the convex hull of
    the points [(xs.(i), ys.(i))], [i < n], by Andrew's monotone chain.
    The points must be distinct and in lexicographic order (x, then y:
    {!Point.compare_lex}). The hull is counter-clockwise, without
    repeating its first vertex; collinear boundary points are dropped.
    Fewer than three points are their own (degenerate) hull: empty, a
    point, or a segment. Raises [Invalid_argument] when [n] exceeds the
    buffer's capacity. *)

val length : t -> int
(** Vertex count of the current hull. *)

val vertex : t -> int -> Point.t
(** [vertex h i], [0 <= i < length h], counter-clockwise from the
    lexicographically smallest point. *)

val contains : t -> float -> float -> bool
(** [contains h x y]: closed containment of the point [(x, y)] in the
    current hull, with a 1e-9 tolerance: no edge may turn right of it by
    more than 1e-9 (a cross product), or, for a degenerate hull, its
    distance to the point or segment is at most 1e-9. The empty hull
    contains nothing. *)

val bbox : t -> Rect.t
(** Bounding box of the current hull's vertices. Raises
    [Invalid_argument] on the empty hull. *)
