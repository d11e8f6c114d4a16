(** Geometric K-partitioning of compatibility-graph components (§3 of
    the paper): components larger than the node bound are recursively
    bisected along the longer spatial dimension at the median of the
    registers' clock-pin positions, keeping spatially close registers —
    those whose merge saves the most clock-tree wire — in the same
    block. The paper uses a bound of 30 nodes (smaller bounds lose QoR,
    larger ones only add runtime; see the ablation bench). *)

val partition :
  ?bound:int -> Csr.t -> position:(int -> Mbr_geom.Point.t) -> int list list
(** [partition ~bound g ~position] returns node blocks such that every
    block has at most [bound] (default 30) nodes, blocks respect
    connected components (never straddle two), and every node appears in
    exactly one block. Within a block nodes are ascending. Raises
    [Invalid_argument] when [bound < 1]. *)

val split_by_median :
  position:(int -> Mbr_geom.Point.t) -> int list -> int list * int list
(** One bisection step, exposed for tests: splits the node list in two
    halves (sizes differing by at most one) along the dimension with the
    larger spread of positions. *)
