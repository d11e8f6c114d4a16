type cell_id = int

type net_id = int

type pin_id = int

type direction = Input | Output

type pin_kind =
  | Pin_d of int
  | Pin_q of int
  | Pin_clock
  | Pin_reset
  | Pin_scan_in of int
  | Pin_scan_out of int
  | Pin_scan_enable
  | Pin_in of int
  | Pin_out
  | Pin_port

type scan_info = { partition : int; section : (int * int) option }

type reg_attrs = {
  lib_cell : Mbr_liberty.Cell.t;
  fixed : bool;
  size_only : bool;
  scan : scan_info option;
  gate_enable : string option;
}

type comb_attrs = {
  gate : string;
  n_inputs : int;
  drive_res : float;
  intrinsic : float;
  input_cap : float;
  area : float;
  g_width : float;
  g_height : float;
}

type port_dir = In_port | Out_port

type cell_kind =
  | Register of reg_attrs
  | Comb of comb_attrs
  | Clock_root
  | Clock_gate of { enable : string }
  | Port of port_dir

type pin = {
  p_cell : cell_id;
  p_kind : pin_kind;
  p_dir : direction;
  mutable p_net : net_id option;
}

type net = { n_name : string; mutable n_pins : pin_id list; n_is_clock : bool }

type cell = {
  c_name : string;
  mutable c_kind : cell_kind;
  mutable c_pins : pin_id list;
  mutable c_dead : bool;
}

let pin_kind_to_string = function
  | Pin_d i -> Printf.sprintf "D%d" i
  | Pin_q i -> Printf.sprintf "Q%d" i
  | Pin_clock -> "CK"
  | Pin_reset -> "R"
  | Pin_scan_in i -> Printf.sprintf "SI%d" i
  | Pin_scan_out i -> Printf.sprintf "SO%d" i
  | Pin_scan_enable -> "SE"
  | Pin_in i -> Printf.sprintf "A%d" i
  | Pin_out -> "Y"
  | Pin_port -> "P"

let is_data_input = function
  | Pin_d _ | Pin_in _ -> true
  | Pin_q _ | Pin_clock | Pin_reset | Pin_scan_in _ | Pin_scan_out _
  | Pin_scan_enable | Pin_out | Pin_port ->
    false
