(** Connected components of an undirected graph. *)

val components : Csr.t -> int list list
(** Each component as an ascending node list; components ordered by
    their smallest node. *)

val component_of : Csr.t -> int array
(** [.(v)] = component index of node [v] (indices follow the order of
    {!components}). *)
