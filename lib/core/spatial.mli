(** Point index on a uniform grid: blocker lookups for the weight
    heuristic (which registers' centers fall inside a candidate's test
    polygon) and other range queries over cell centers. Entries are
    only ever added: a population that changed is indexed afresh, as
    the flow does with its blocker index on every pass. *)

type 'a t

val create : ?bucket:float -> unit -> 'a t
(** [bucket] is the grid pitch in µm (default 25). *)

val add : 'a t -> 'a -> Mbr_geom.Point.t -> unit

val query_rect : 'a t -> Mbr_geom.Rect.t -> ('a * Mbr_geom.Point.t) list
(** All entries whose point lies in the closed rectangle.

    {b Domain safety:} a pure read — it never touches the index's
    mutable state. Any number of domains may query the same index
    concurrently provided no [add] runs at the same time;
    the allocate stage upholds this by fully populating the blocker
    index before fanning out (see {!Allocate}). *)

val size : 'a t -> int
