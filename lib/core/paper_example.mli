(** The paper's worked example (Figs. 1–3): six registers A1, B1, C1,
    D1, E4, F2 with the Fig. 2 placement, a library with 1/2/3/4/8-bit
    MBRs, and the Fig. 1 compatibility graph.

    Geometry is reconstructed from the constraints the paper states:
    D's center lies inside the test polygons of \{B,C\} and \{A,B,C\}
    (making their weights 4 and 6), every other documented candidate is
    clean, and \{A,C,E\} totals 6 bits (so it can only map to an
    incomplete 8-bit MBR). The module is the ground truth for the
    golden tests and the quickstart example. *)

type t = {
  design : Mbr_netlist.Design.t;
  placement : Mbr_place.Placement.t;
  library : Mbr_liberty.Library.t;
  graph : Compat.graph;  (** node order: A, B, C, D, E, F *)
  blocker_index : Mbr_netlist.Types.cell_id Spatial.t;
  names : string array;  (** [|"A";"B";"C";"D";"E";"F"|] *)
}

val build : unit -> t

val node : t -> string -> int
(** Graph node of a register by name; raises [Not_found]. *)

val weight_of : t -> string list -> float
(** Weight of the candidate formed by the named registers (the Fig. 3
    table), counted by the kernel {!Candidate.iter} weighs with: a
    {!Weight.view} of the example, queried with the members' mask.
    Singletons cost 1. *)

val candidates :
  ?allow_incomplete:bool ->
  ?incomplete_area_overhead:float ->
  t ->
  Candidate.t list
(** Enumerate candidates over the whole example (one block). The
    paper's Fig. 3 admits the incomplete AE candidate "on purpose"
    although the production 5 % area rule would reject it; pass
    [incomplete_area_overhead] ~0.6 to reproduce the figure. *)

val solve :
  ?allow_incomplete:bool ->
  ?incomplete_area_overhead:float ->
  t ->
  Mbr_netlist.Types.cell_id list list * float
(** ILP selection: the chosen groups (as member cid lists, merges and
    singletons alike) and the objective value. *)
