(** Post-composition MBR sizing (Fig. 4, "MBR sizing").

    Useful skew widens the worst slack of each new MBR; any remaining
    positive margin is spent on a weaker drive of the same cell family,
    reducing area and clock-pin capacitance. The delay increase of
    every Q output is bounded by (Δdrive_res × measured load) and must
    fit inside the available slack minus a 20 ps margin that is never
    spent. *)

val downsize :
  Mbr_sta.Engine.t ->
  Mbr_liberty.Library.t ->
  Mbr_netlist.Types.cell_id list ->
  int
(** Try to downsize each given register; returns how many were swapped.
    The swaps are logged retypes, so the engine's next
    {!Mbr_sta.Engine.refresh} absorbs them. *)
