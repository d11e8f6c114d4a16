(** The design database: cells, nets and pins with construction, query
    and edit primitives. MBR composition edits the database in place
    (registers are tombstoned, MBRs added), so cell/net/pin ids are
    stable for the lifetime of a design. *)

type t

val create : name:string -> t

val name : t -> string

(** {1 Edit notifications}

    Every mutation appends to an append-only edit log so that derived
    structures (the STA engine's timing graph, the placement's net
    bounding-box cache) can update incrementally instead of rebuilding.
    Consumers remember the {!revision} they last saw and drain
    {!edits_since} from it; the log is never truncated for the lifetime
    of the design. *)

type edit =
  | Cell_added of Types.cell_id
      (** A cell finished construction (its pins exist and are wired). *)
  | Cell_removed of Types.cell_id  (** A cell was tombstoned. *)
  | Cell_retyped of Types.cell_id
      (** A register swapped library cells: pin caps, drive and setup
          changed; connectivity did not. *)
  | Net_changed of Types.net_id * Types.pin_id
      (** A net's pin membership changed: the pin joined or left it.
          One is logged per pin created on a net and per pin that
          {!connect}, {!disconnect} or {!remove_cell} moves ([connect]
          of a wired pin logs two: leaving the old net, joining the
          new; [connect] to the pin's own net logs none), so a consumer
          can tell which pins lost their old connections. *)

val revision : t -> int
(** Monotonically increasing edit count (the log length). *)

val edits_since : t -> int -> edit list
(** Edits appended at or after the given revision, oldest first. *)

(** {1 Construction} *)

val add_net : ?is_clock:bool -> t -> string -> Types.net_id

val add_port :
  t -> string -> Types.port_dir -> Types.net_id -> Types.cell_id
(** Primary IO as a pseudo cell with one pin on the net: an [In_port]
    drives it, an [Out_port] loads it. *)

val add_clock_root : t -> string -> Types.net_id -> Types.cell_id

val add_clock_gate :
  t ->
  string ->
  enable:string ->
  ck_in:Types.net_id ->
  ck_out:Types.net_id ->
  Types.cell_id

val add_comb :
  t ->
  string ->
  Types.comb_attrs ->
  inputs:Types.net_id list ->
  output:Types.net_id ->
  Types.cell_id
(** Raises [Invalid_argument] if the input count differs from
    [n_inputs]. *)

(** Connection spec for a register; array lengths must equal the library
    cell's bit count. [None] entries are tied-off/unconnected (incomplete
    MBR bits). Scan pins are created from the library cell's scan style
    (internal scan: SI0/SO0; per-bit scan: one pair per bit) whether or
    not the spec connects them — [scan_ins]/[scan_outs] entries naming a
    pin the cell does not have are rejected. *)
type reg_conn = {
  d_nets : Types.net_id option array;
  q_nets : Types.net_id option array;
  clock : Types.net_id;
  reset : Types.net_id option;
  scan_enable : Types.net_id option;
  scan_ins : (int * Types.net_id) list;
  scan_outs : (int * Types.net_id) list;
}

val simple_conn :
  d:Types.net_id option array ->
  q:Types.net_id option array ->
  clock:Types.net_id ->
  reg_conn
(** [reg_conn] with no reset/scan connections. *)

val add_register : t -> string -> Types.reg_attrs -> reg_conn -> Types.cell_id

(** {1 Queries} *)

val cell : t -> Types.cell_id -> Types.cell

val pin : t -> Types.pin_id -> Types.pin

val net : t -> Types.net_id -> Types.net

val n_cells : t -> int
(** Live cells only. *)

val next_cell_id : t -> Types.cell_id
(** The id the next added cell receives. Ids are never reused, so a
    name built from a fixed prefix and this id is unique in the design
    and depends only on the design's own edit history. *)

val n_nets : t -> int

val n_pins : t -> int

val live_cells : t -> Types.cell_id list

val registers : t -> Types.cell_id list
(** Live register cells, ascending id. *)

val reg_attrs : t -> Types.cell_id -> Types.reg_attrs
(** Raises [Invalid_argument] when the cell is not a live register. *)

val find_cell : t -> string -> Types.cell_id option
(** Linear scan by name (live cells only) — for tests and examples. *)

val pin_of : t -> Types.cell_id -> Types.pin_kind -> Types.pin_id option

val pins_of : t -> Types.cell_id -> Types.pin_id list

val driver : t -> Types.net_id -> Types.pin_id option
(** The unique output pin on the net, if any. *)

val sinks : t -> Types.net_id -> Types.pin_id list

val pin_cap : t -> Types.pin_id -> float
(** Input capacitance presented by the pin (0 for outputs). *)

val pin_drive_res : t -> Types.pin_id -> float
(** Drive resistance of an output pin; raises [Invalid_argument] on an
    input pin. *)

val cell_area : t -> Types.cell_id -> float

val cell_size : t -> Types.cell_id -> float * float
(** (width, height) of the cell footprint. *)

val total_area : t -> float
(** Sum over live cells. *)

val clock_nets : t -> Types.net_id list

(** {1 Edits} *)

val connect : t -> Types.pin_id -> Types.net_id -> unit
(** Reconnects (disconnecting from any previous net first). A pin
    already on the net is left as it is: nothing is logged and the
    net's pin order does not change. *)

val disconnect : t -> Types.pin_id -> unit

val remove_cell : t -> Types.cell_id -> unit
(** Disconnects all pins and tombstones the cell. Idempotent. *)

val retype_register : t -> Types.cell_id -> Mbr_liberty.Cell.t -> unit
(** Swap a live register's library cell for another of the same
    functional class, bit width and scan style (MBR sizing, §4.1 /
    Fig. 4). Connectivity is untouched. Raises [Invalid_argument] when
    the replacement is not pin-compatible. *)

val validate : t -> string list
(** Structural invariant violations (empty = healthy): multiple drivers
    on a net, pins whose net does not list them back, live registers
    with pin sets inconsistent with their library cell, dead cells with
    connected pins. *)
