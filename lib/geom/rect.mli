(** Axis-aligned rectangles (cell footprints, feasible regions, bounding
    boxes). Degenerate rectangles (zero width/height) are allowed: a
    register whose slack permits no movement has a feasible region equal
    to its own footprint, possibly collapsed to a point. *)

type t = { lx : float; ly : float; hx : float; hy : float }

val make : lx:float -> ly:float -> hx:float -> hy:float -> t
(** Raises [Invalid_argument] when [hx < lx] or [hy < ly]. *)

val of_points : Point.t list -> t
(** Tight bounding box of a non-empty point set. *)

val width : t -> float

val height : t -> float

val area : t -> float

val half_perimeter : t -> float
(** (width + height): the HPWL of the box. *)

val center : t -> Point.t

val corners : t -> Point.t list
(** The four corner points, counter-clockwise from (lx, ly). *)

val contains : t -> Point.t -> bool
(** Closed containment (boundary counts). *)

val contains_rect : t -> t -> bool
(** [contains_rect outer inner]. *)

val intersects : t -> t -> bool
(** Closed-interval overlap (touching edges intersect). *)

val overlaps_strictly : ?eps:float -> t -> t -> bool
(** Overlap of area above noise level (touching edges do not count; an
    [eps] band, default 1e-9, absorbs float round-off) — the test used
    for placement legality. *)

val inter : t -> t -> t option
(** Intersection rectangle; [None] when disjoint (touching boxes yield a
    degenerate rectangle, not [None]). *)

val inter_all : t list -> t option
(** Intersection of all; [None] when the list is empty or the common
    region is empty. *)

val union : t -> t -> t
(** Bounding box of the two. *)

val expand : t -> float -> t
(** Minkowski expansion by [d] on every side; negative [d] shrinks and
    collapses to the center when over-shrunk. *)

val clamp_point : t -> Point.t -> Point.t
(** Nearest point of the rectangle to the argument. *)

val translate : t -> Point.t -> t

val pp : Format.formatter -> t -> unit
