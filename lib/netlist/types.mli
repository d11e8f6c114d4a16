(** Shared netlist vocabulary: ids, pin and cell kinds, register
    attributes. Gathered in one definitions-only module (opened freely,
    per the OCaml guidelines on shared-type modules). *)

type cell_id = int

type net_id = int

type pin_id = int

type direction = Input | Output

type pin_kind =
  | Pin_d of int  (** data input, bit index within the register *)
  | Pin_q of int  (** data output, bit index *)
  | Pin_clock
  | Pin_reset
  | Pin_scan_in of int  (** bit index; internal-scan cells use bit 0 *)
  | Pin_scan_out of int
  | Pin_scan_enable
  | Pin_in of int  (** combinational input, position *)
  | Pin_out  (** combinational / buffer / gate output *)
  | Pin_port  (** the single pin of a primary-IO pseudo cell *)

(** Scan-chain membership of a register (§2 "scan compatibility"). *)
type scan_info = {
  partition : int;  (** registers may share a chain only within one *)
  section : (int * int) option;
      (** [(section_id, position)] when the register belongs to an
          {e ordered} scan section: merged registers must preserve the
          order inside one MBR's internal chain *)
}

type reg_attrs = {
  lib_cell : Mbr_liberty.Cell.t;
  fixed : bool;  (** designer-specified: never moved or merged *)
  size_only : bool;  (** may be resized but not merged *)
  scan : scan_info option;
  gate_enable : string option;
      (** clock-gating enable condition id; merged registers must share
          it (same ICG cone) *)
}

type comb_attrs = {
  gate : string;  (** e.g. "NAND2_X1" — informational *)
  n_inputs : int;
  drive_res : float;  (** kΩ *)
  intrinsic : float;  (** ps *)
  input_cap : float;  (** fF per input pin *)
  area : float;
  g_width : float;
  g_height : float;
}

type port_dir = In_port | Out_port

type cell_kind =
  | Register of reg_attrs
  | Comb of comb_attrs
  | Clock_root  (** clock source pseudo cell (one output pin) *)
  | Clock_gate of { enable : string }
      (** integrated clock gate: pins CKIN(Pin_in 0), CKOUT(Pin_out) *)
  | Port of port_dir

type pin = {
  p_cell : cell_id;
  p_kind : pin_kind;
  p_dir : direction;
  mutable p_net : net_id option;
}

type net = {
  n_name : string;
  mutable n_pins : pin_id list;  (** unordered *)
  n_is_clock : bool;
}

type cell = {
  c_name : string;
  mutable c_kind : cell_kind;
  mutable c_pins : pin_id list;  (** in creation order *)
  mutable c_dead : bool;  (** tombstoned by netlist edits *)
}

val pin_kind_to_string : pin_kind -> string

val is_data_input : pin_kind -> bool
