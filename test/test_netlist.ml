(* Tests for Mbr_netlist.Design: construction, queries, edits,
   validation. *)

module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf = Alcotest.(check (float 1e-9))

let lib = Presets.default ()

let dff1 = Library.find lib "DFF1_X1"

let dff4 = Library.find lib "DFF4_X1"

let sdffr2 = Library.find lib "SDFFR2_X1"

let attrs ?(fixed = false) ?(size_only = false) ?scan ?enable cell =
  Types.{ lib_cell = cell; fixed; size_only; scan; gate_enable = enable }

let nand2 =
  Types.
    {
      gate = "NAND2_X1";
      n_inputs = 2;
      drive_res = 2.2;
      intrinsic = 16.0;
      input_cap = 0.55;
      area = 1.2;
      g_width = 1.0;
      g_height = 1.2;
    }

(* clk net, one 1-bit register fed by a NAND2 of two input ports, Q to
   an output port *)
let small_design () =
  let d = Design.create ~name:"small" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let _ = Design.add_clock_root d "uclk" clk in
  let a = Design.add_net d "a" in
  let b = Design.add_net d "b" in
  let n1 = Design.add_net d "n1" in
  let q = Design.add_net d "q" in
  let _ = Design.add_port d "a" Types.In_port a in
  let _ = Design.add_port d "b" Types.In_port b in
  let _ = Design.add_port d "q" Types.Out_port q in
  let g = Design.add_comb d "g0" nand2 ~inputs:[ a; b ] ~output:n1 in
  let r =
    Design.add_register d "r0" (attrs dff1)
      (Design.simple_conn ~d:[| Some n1 |] ~q:[| Some q |] ~clock:clk)
  in
  (d, clk, n1, q, g, r)

let test_counts () =
  let d, _, _, _, _, _ = small_design () in
  checki "cells" 6 (Design.n_cells d);
  checki "nets" 5 (Design.n_nets d);
  checki "registers" 1 (List.length (Design.registers d));
  check "valid" true (Design.validate d = [])

let test_driver_sinks () =
  let d, _, n1, q, g, r = small_design () in
  (match Design.driver d n1 with
  | Some pid -> checki "n1 driven by gate" g (Design.pin d pid).Types.p_cell
  | None -> Alcotest.fail "n1 has a driver");
  let sinks = Design.sinks d n1 in
  checki "one sink" 1 (List.length sinks);
  (match sinks with
  | [ pid ] -> checki "sink is register" r (Design.pin d pid).Types.p_cell
  | _ -> Alcotest.fail "one sink expected");
  checki "q sinks = out port" 1 (List.length (Design.sinks d q))

let test_pin_of () =
  let d, _, _, _, _, r = small_design () in
  check "has D0" true (Design.pin_of d r (Types.Pin_d 0) <> None);
  check "has CK" true (Design.pin_of d r Types.Pin_clock <> None);
  check "no D1" true (Design.pin_of d r (Types.Pin_d 1) = None);
  check "no reset pin" true (Design.pin_of d r Types.Pin_reset = None)

let test_pin_caps () =
  let d, _, _, _, _, r = small_design () in
  (match Design.pin_of d r Types.Pin_clock with
  | Some pid -> checkf "clock cap" dff1.Cell_lib.clock_pin_cap (Design.pin_cap d pid)
  | None -> Alcotest.fail "ck pin");
  (match Design.pin_of d r (Types.Pin_d 0) with
  | Some pid -> checkf "data cap" dff1.Cell_lib.data_pin_cap (Design.pin_cap d pid)
  | None -> Alcotest.fail "d pin");
  (match Design.pin_of d r (Types.Pin_q 0) with
  | Some pid ->
    checkf "output pin cap 0" 0.0 (Design.pin_cap d pid);
    checkf "drive res" dff1.Cell_lib.drive_res (Design.pin_drive_res d pid)
  | None -> Alcotest.fail "q pin")

let test_register_attrs () =
  let d, _, _, _, _, r = small_design () in
  let a = Design.reg_attrs d r in
  check "not fixed" true (not a.Types.fixed);
  checki "bits" 1 a.Types.lib_cell.Cell_lib.bits

let test_multibit_register () =
  let d = Design.create ~name:"mb" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let nets = Array.init 4 (fun i -> Some (Design.add_net d (Printf.sprintf "d%d" i))) in
  let qs = Array.init 4 (fun i -> Some (Design.add_net d (Printf.sprintf "q%d" i))) in
  let r = Design.add_register d "m" (attrs dff4) (Design.simple_conn ~d:nets ~q:qs ~clock:clk) in
  checki "9 pins (4D + 4Q + CK)" 9 (List.length (Design.pins_of d r));
  check "valid" true (Design.validate d = [])

let test_incomplete_register () =
  (* tied-off bits: D/Q arrays with None entries *)
  let d = Design.create ~name:"inc" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let d0 = Design.add_net d "d0" in
  let q0 = Design.add_net d "q0" in
  let dn = [| Some d0; None; None; None |] in
  let qn = [| Some q0; None; None; None |] in
  let r = Design.add_register d "m" (attrs dff4) (Design.simple_conn ~d:dn ~q:qn ~clock:clk) in
  check "valid" true (Design.validate d = []);
  (match Design.pin_of d r (Types.Pin_d 1) with
  | Some pid -> check "bit1 unconnected" true ((Design.pin d pid).Types.p_net = None)
  | None -> Alcotest.fail "pin exists even when unconnected")

let test_register_arity_mismatch () =
  let d = Design.create ~name:"bad" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  Alcotest.check_raises "arity"
    (Invalid_argument "Design.add_register: D/Q array length must equal cell bits")
    (fun () ->
      ignore
        (Design.add_register d "m" (attrs dff4)
           (Design.simple_conn ~d:[| None |] ~q:[| None |] ~clock:clk)))

let test_comb_arity_mismatch () =
  let d = Design.create ~name:"bad" in
  let n = Design.add_net d "n" in
  let o = Design.add_net d "o" in
  Alcotest.check_raises "arity" (Invalid_argument "Design.add_comb: input arity mismatch")
    (fun () -> ignore (Design.add_comb d "g" nand2 ~inputs:[ n ] ~output:o))

let test_connect_disconnect () =
  let d, _, n1, _, _, r = small_design () in
  let pid =
    match Design.pin_of d r (Types.Pin_d 0) with
    | Some p -> p
    | None -> Alcotest.fail "d pin"
  in
  Design.disconnect d pid;
  check "disconnected" true ((Design.pin d pid).Types.p_net = None);
  checki "net lost the sink" 0 (List.length (Design.sinks d n1));
  Design.connect d pid n1;
  checki "reconnected" 1 (List.length (Design.sinks d n1));
  check "valid after edits" true (Design.validate d = [])

let test_connect_moves_pin () =
  let d, _, n1, q, _, r = small_design () in
  ignore q;
  let pid =
    match Design.pin_of d r (Types.Pin_d 0) with Some p -> p | None -> assert false
  in
  let other = Design.add_net d "other" in
  Design.connect d pid other;
  checki "old net empty" 0 (List.length (Design.sinks d n1));
  checki "new net has it" 1 (List.length (Design.sinks d other));
  check "valid" true (Design.validate d = [])

let test_connect_same_net_noop () =
  (* the gate output joined n1 before the register's D pin, so it is
     not at the head of the net's pin list *)
  let d, _, n1, _, g, _ = small_design () in
  let pid =
    match Design.pin_of d g Types.Pin_out with Some p -> p | None -> assert false
  in
  let pins = (Design.net d n1).Types.n_pins and revision = Design.revision d in
  Design.connect d pid n1;
  checki "nothing logged" revision (Design.revision d);
  Alcotest.(check (list int)) "pin order kept" pins (Design.net d n1).Types.n_pins;
  check "valid" true (Design.validate d = [])

let test_remove_cell () =
  let d, _, _, _, _, r = small_design () in
  let before = Design.n_cells d in
  Design.remove_cell d r;
  checki "one fewer" (before - 1) (Design.n_cells d);
  checki "no registers" 0 (List.length (Design.registers d));
  check "valid after removal" true (Design.validate d = []);
  (* idempotent *)
  Design.remove_cell d r;
  checki "still one fewer" (before - 1) (Design.n_cells d);
  check "attrs of dead cell rejected" true
    (try ignore (Design.reg_attrs d r); false with Invalid_argument _ -> true)

let test_find_cell () =
  let d, _, _, _, _, r = small_design () in
  check "find r0" true (Design.find_cell d "r0" = Some r);
  check "missing" true (Design.find_cell d "nope" = None);
  Design.remove_cell d r;
  check "dead not found" true (Design.find_cell d "r0" = None)

let test_total_area () =
  let d, _, _, _, _, _ = small_design () in
  checkf "area = gate + register" (nand2.Types.area +. dff1.Cell_lib.area)
    (Design.total_area d)

let test_clock_nets () =
  let d, clk, _, _, _, _ = small_design () in
  Alcotest.(check (list int)) "clock nets" [ clk ] (Design.clock_nets d)

let test_retype_register () =
  let d = Design.create ~name:"rt" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let r =
    Design.add_register d "r" (attrs dff1)
      (Design.simple_conn ~d:[| None |] ~q:[| None |] ~clock:clk)
  in
  let x2 = Library.find lib "DFF1_X2" in
  Design.retype_register d r x2;
  checki "drive swapped" 2 (Design.reg_attrs d r).Types.lib_cell.Cell_lib.drive;
  Alcotest.check_raises "bits mismatch"
    (Invalid_argument "Design.retype_register: incompatible replacement cell")
    (fun () -> Design.retype_register d r dff4);
  Alcotest.check_raises "scan mismatch"
    (Invalid_argument "Design.retype_register: incompatible replacement cell")
    (fun () -> Design.retype_register d r sdffr2)

let test_validate_catches_double_driver () =
  let d = Design.create ~name:"dd" in
  let n = Design.add_net d "n" in
  let _p1 = Design.add_port d "p1" Types.In_port n in
  let _p2 = Design.add_port d "p2" Types.In_port n in
  check "double driver flagged" true (Design.validate d <> [])

let test_scan_register_pins () =
  let d = Design.create ~name:"scan" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let se = Design.add_net d "se" in
  let si = Design.add_net d "si" in
  let so = Design.add_net d "so" in
  let rst = Design.add_net d "rst" in
  let conn =
    {
      Design.d_nets = [| None; None |];
      q_nets = [| None; None |];
      clock = clk;
      reset = Some rst;
      scan_enable = Some se;
      scan_ins = [ (0, si) ];
      scan_outs = [ (0, so) ];
    }
  in
  let scan_info = Types.{ partition = 0; section = None } in
  let r = Design.add_register d "sr" (attrs ~scan:scan_info sdffr2) conn in
  check "has SE" true (Design.pin_of d r Types.Pin_scan_enable <> None);
  check "has SI0" true (Design.pin_of d r (Types.Pin_scan_in 0) <> None);
  (* internal-scan cell: exactly one SI/SO pair regardless of bits *)
  check "has SO0" true (Design.pin_of d r (Types.Pin_scan_out 0) <> None);
  check "no SI1" true (Design.pin_of d r (Types.Pin_scan_in 1) = None);
  check "has reset" true (Design.pin_of d r Types.Pin_reset <> None);
  check "valid" true (Design.validate d = []);
  (* a connection naming a pin the cell lacks is rejected *)
  Alcotest.check_raises "bad scan pin"
    (Invalid_argument "Design.add_register: scan connection to a missing pin")
    (fun () ->
      ignore
        (Design.add_register d "sr2" (attrs ~scan:scan_info sdffr2)
           { conn with Design.scan_outs = [ (1, so) ] }))

let () =
  Alcotest.run "mbr_netlist"
    [
      ( "construction",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "driver/sinks" `Quick test_driver_sinks;
          Alcotest.test_case "pin_of" `Quick test_pin_of;
          Alcotest.test_case "pin caps" `Quick test_pin_caps;
          Alcotest.test_case "register attrs" `Quick test_register_attrs;
          Alcotest.test_case "multibit register" `Quick test_multibit_register;
          Alcotest.test_case "incomplete register" `Quick test_incomplete_register;
          Alcotest.test_case "register arity" `Quick test_register_arity_mismatch;
          Alcotest.test_case "comb arity" `Quick test_comb_arity_mismatch;
          Alcotest.test_case "scan register pins" `Quick test_scan_register_pins;
        ] );
      ( "queries",
        [
          Alcotest.test_case "find_cell" `Quick test_find_cell;
          Alcotest.test_case "total area" `Quick test_total_area;
          Alcotest.test_case "clock nets" `Quick test_clock_nets;
        ] );
      ( "edits",
        [
          Alcotest.test_case "connect/disconnect" `Quick test_connect_disconnect;
          Alcotest.test_case "connect moves pin" `Quick test_connect_moves_pin;
          Alcotest.test_case "connect to own net is a no-op" `Quick
            test_connect_same_net_noop;
          Alcotest.test_case "remove cell" `Quick test_remove_cell;
          Alcotest.test_case "retype register" `Quick test_retype_register;
          Alcotest.test_case "validate double driver" `Quick
            test_validate_catches_double_driver;
        ] );
    ]
