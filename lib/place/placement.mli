(** Cell locations for a design: lower-left corners keyed by cell id,
    with footprint and pin-location queries. A placement does not own
    the design; composition edits both in step. *)

type t

val create : Floorplan.t -> Mbr_netlist.Design.t -> t

val floorplan : t -> Floorplan.t

val design : t -> Mbr_netlist.Design.t

val set : t -> Mbr_netlist.Types.cell_id -> Mbr_geom.Point.t -> unit
(** Place (or move) a cell's lower-left corner. *)

val remove : t -> Mbr_netlist.Types.cell_id -> unit

val location : t -> Mbr_netlist.Types.cell_id -> Mbr_geom.Point.t
(** Raises [Not_found] for unplaced cells. *)

val location_opt : t -> Mbr_netlist.Types.cell_id -> Mbr_geom.Point.t option

val is_placed : t -> Mbr_netlist.Types.cell_id -> bool

val footprint : t -> Mbr_netlist.Types.cell_id -> Mbr_geom.Rect.t
(** Cell rectangle at its current location; raises [Not_found] when
    unplaced. *)

val center : t -> Mbr_netlist.Types.cell_id -> Mbr_geom.Point.t

val pin_location : t -> Mbr_netlist.Types.pin_id -> Mbr_geom.Point.t
(** Absolute pin coordinate: cell corner + pin offset. Register pins
    use the library-cell pin map; other cells use their center.
    Raises [Not_found] when the owning cell is unplaced. *)

val revision : t -> int
(** Count of {!set} calls and of {!remove} calls that unplaced a
    cell: a consumer that recorded it sees at a glance whether any
    cell moved since. Which nets the moves touched is what
    {!net_stamp} records; the placement keeps no log of moved cells. *)

val net_pin_points : t -> Mbr_netlist.Types.net_id -> (Mbr_netlist.Types.pin_id * Mbr_netlist.Types.cell_id * Mbr_geom.Point.t) list
(** The net's placed pins with their absolute locations, cached per net
    and invalidated automatically by cell moves and design edits
    (connectivity or register retype). Dead cells never appear: their
    pins are disconnected when tombstoned. *)

val net_box : t -> Mbr_netlist.Types.net_id -> Mbr_geom.Rect.t option
(** Bounding box of {!net_pin_points} ([None] when no pin is placed);
    served from the same cache. *)

val net_stamp : t -> Mbr_netlist.Types.net_id -> int
(** A per-net change counter, and the placement's one record of what
    changed: it moves exactly when the placement drops the net's cached
    {!net_pin_points} — a {!set} or {!remove} of a cell with a pin on
    the net, a retype of such a register, and every design edit that
    adds a pin to the net or takes one off it. So a net whose stamp did
    not move has the same pins, in the same order, at the same
    locations, with the same input caps, as when the stamp was last
    read. Pending design edits are folded in before the read. Stamps
    start at 0 and only grow; a net added to the design after the
    placement was made reads 0 until its first change, so a consumer
    that records [-1] for a net it never swept sees every net, new ones
    included, as changed. Consumers keep their own copy of the stamps
    they have seen (the routing and power states of a metrics snapshot,
    the STA engine), so any number of them can read one placement. *)

val iter : (Mbr_netlist.Types.cell_id -> Mbr_geom.Point.t -> unit) -> t -> unit
(** Live placed cells only. *)

val placed_registers : t -> Mbr_netlist.Types.cell_id list

val utilization : t -> float
(** Total placed live-cell area / core area. *)

val overlapping_registers : t -> (Mbr_netlist.Types.cell_id * Mbr_netlist.Types.cell_id) list
(** Pairs of live registers whose footprints overlap with positive area
    — the legality check the composition flow must keep empty. *)

val copy : t -> t
(** Snapshot of the locations, net cache and stamps (shares
    design/floorplan). The stamps are copied, not shared: a {!set} or
    {!remove} on one placement leaves the other's stamps alone, while a
    design edit reaches both, as they share the design. *)
