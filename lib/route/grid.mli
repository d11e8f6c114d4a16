(** Global-routing grid (g-cells) with per-edge capacities, in the style
    of the congestion estimation literature the paper cites
    (Sapatnekar/Saxena/Shelar): demand is accumulated on the boundary
    edges between adjacent g-cells and an edge whose demand exceeds its
    capacity is an {e overflow edge} — Table 1's "Ovfl Edges" metric. *)

type t

val create :
  core:Mbr_geom.Rect.t ->
  gcell:float ->
  cap_h:float ->
  cap_v:float ->
  t
(** [gcell] is the tile edge length (µm); [cap_h] is the capacity of
    each horizontal routing edge (crossings between horizontally
    adjacent tiles), [cap_v] vertical. *)

val nx : t -> int

val ny : t -> int

val tile_of : t -> Mbr_geom.Point.t -> int * int
(** Clamped tile coordinates of a point. *)

val col : t -> Mbr_geom.Point.t -> int
(** [fst (tile_of t p)] without the tuple; monotone in [p.x]. *)

val row : t -> Mbr_geom.Point.t -> int
(** [snd (tile_of t p)] without the tuple; monotone in [p.y]. *)

val add_h_segment : t -> y:float -> x0:float -> x1:float -> demand:float -> unit
(** Accumulate demand on every horizontal edge crossed by the segment. *)

val add_v_segment : t -> x:float -> y0:float -> y1:float -> demand:float -> unit

val route_l : t -> Mbr_geom.Point.t -> Mbr_geom.Point.t -> demand:float -> unit
(** L-shaped route between two points; demand is split half/half over
    the lower-L and upper-L bends so the estimate is unbiased. *)

val route_l_tiles :
  t -> ai:int -> aj:int -> bi:int -> bj:int -> demand:float -> unit
(** {!route_l} between two points already mapped to tiles
    ([(ai, aj)] and [(bi, bj)], as {!col}/{!row} return them):
    callers routing many branches from one point map each point once.
    [route_l t a b] is [route_l_tiles] on the tiles of [a] and [b].
    A negative [demand] takes a route back off the grid: with every
    demand a multiple of 0.5 (as the estimator's are), [~demand:(-1.0)]
    undoes [~demand:1.0] exactly. *)

val overflow_edges : t -> int
(** Edges with demand strictly above capacity. *)

val max_utilization : t -> float
(** max over edges of demand/capacity (0 when the grid is empty). *)

val total_demand : t -> float

val reset : t -> unit
