(* Tests for Mbr_designgen: the synthetic designs must be structurally
   sound (valid netlist, legal placement), deterministic, and calibrated
   (width mix, composable fraction, failing-endpoint fraction). *)

module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Cell_lib = Mbr_liberty.Cell

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let tiny = P.tiny ~seed:1234

let g = G.generate tiny

let test_register_count () =
  checki "registers" tiny.P.n_registers (List.length (Design.registers g.G.design))

let test_netlist_valid () =
  Alcotest.(check (list string)) "no violations" [] (Design.validate g.G.design)

let test_placement_legal () =
  checki "no register overlaps" 0
    (List.length (Placement.overlapping_registers g.G.placement));
  let fp = Placement.floorplan g.G.placement in
  List.iter
    (fun cid ->
      let f = Placement.footprint g.G.placement cid in
      check "inside core" true
        (Mbr_geom.Rect.contains_rect fp.Mbr_place.Floorplan.core f))
    (Design.registers g.G.design)

let test_all_registers_placed () =
  List.iter
    (fun cid -> check "placed" true (Placement.is_placed g.G.placement cid))
    (Design.registers g.G.design)

let test_deterministic () =
  let g2 = G.generate tiny in
  checki "same cells" (Design.n_cells g.G.design) (Design.n_cells g2.G.design);
  checki "same nets" (Design.n_nets g.G.design) (Design.n_nets g2.G.design);
  check "same period" true
    (g.G.sta_config.Engine.clock_period = g2.G.sta_config.Engine.clock_period)

let test_seed_changes_design () =
  let g2 = G.generate (P.tiny ~seed:9999) in
  check "different" true (Design.n_nets g.G.design <> Design.n_nets g2.G.design
                          || g.G.sta_config.Engine.clock_period
                             <> g2.G.sta_config.Engine.clock_period)

let test_width_histogram () =
  let hist = G.width_histogram g.G.design in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  checki "histogram covers all" tiny.P.n_registers total;
  List.iter (fun (w, _) -> check "library width" true (List.mem w [ 1; 2; 4; 8 ])) hist;
  (* the tiny profile asks for a 1-bit-heavy mix *)
  (match List.assoc_opt 1 hist with
  | Some n -> check "1-bit majority-ish" true (float_of_int n > 0.25 *. float_of_int total)
  | None -> Alcotest.fail "1-bit registers expected")

let test_failing_fraction_calibrated () =
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let frac =
    float_of_int (Engine.failing_endpoints eng) /. float_of_int (Engine.n_endpoints eng)
  in
  check "within 10pp of target" true (Float.abs (frac -. tiny.P.failing_frac) < 0.10)

let test_timing_graph_acyclic () =
  (* Engine.build raises on cycles; reaching here is the assertion *)
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  check "wns finite" true (Float.is_finite (Engine.wns eng))

let test_clock_domains_exist () =
  let clocks = Design.clock_nets g.G.design in
  checki "root + gated domains" (1 + tiny.P.n_gated_domains) (List.length clocks)

let test_scan_registers_have_partitions () =
  let scanned =
    List.filter
      (fun cid -> (Design.reg_attrs g.G.design cid).Types.scan <> None)
      (Design.registers g.G.design)
  in
  check "some scan registers" true (List.length scanned > 0);
  List.iter
    (fun cid ->
      match (Design.reg_attrs g.G.design cid).Types.scan with
      | Some s ->
        check "partition in range" true
          (s.Types.partition >= 0 && s.Types.partition < tiny.P.n_scan_partitions)
      | None -> ())
    scanned

let test_gated_registers_have_enables () =
  List.iter
    (fun cid ->
      let a = Design.reg_attrs g.G.design cid in
      match Design.pin_of g.G.design cid Types.Pin_clock with
      | Some pid -> (
        match (Design.pin g.G.design pid).Types.p_net with
        | Some nid ->
          let name = (Design.net g.G.design nid).Types.n_name in
          if name = "clk" then check "root clock has no enable" true (a.Types.gate_enable = None)
          else check "gated clock has enable" true (a.Types.gate_enable <> None)
        | None -> Alcotest.fail "clock connected")
      | None -> Alcotest.fail "clock pin")
    (Design.registers g.G.design)

let test_every_d_pin_driven () =
  List.iter
    (fun cid ->
      List.iter
        (fun pid ->
          let p = Design.pin g.G.design pid in
          match p.Types.p_kind with
          | Types.Pin_d _ -> (
            match p.Types.p_net with
            | Some nid -> check "driver exists" true (Design.driver g.G.design nid <> None)
            | None -> Alcotest.fail "generated D pins are connected")
          | _ -> ())
        (Design.pins_of g.G.design cid))
    (Design.registers g.G.design)

let test_scaled_profile () =
  let half = P.scaled tiny 0.5 in
  let gh = G.generate half in
  checki "half the registers" (tiny.P.n_registers / 2)
    (List.length (Design.registers gh.G.design))

(* The flat family must be structurally sound like any other profile,
   and actually aggregation-hostile: running the composition flow on it
   merges a materially smaller fraction of the registers than the
   clustered tiny profile does — if the two densities ever converge,
   "flat" has stopped exercising anything. *)
let test_flat_profile () =
  let p = P.flat ~seed:2 in
  let gf = G.generate p in
  check "flat flag set" true p.P.flat;
  checki "register count" p.P.n_registers
    (List.length (Design.registers gf.G.design));
  Alcotest.(check (list string)) "netlist valid" []
    (Design.validate gf.G.design);
  checki "no register overlaps" 0
    (List.length (Placement.overlapping_registers gf.G.placement));
  let merge_density (g : G.t) n_regs =
    let r =
      Mbr_core.Flow.run ~design:g.G.design ~placement:g.G.placement
        ~library:g.G.library ~sta_config:g.G.sta_config ()
    in
    float_of_int r.Mbr_core.Flow.n_merges /. float_of_int n_regs
  in
  let flat_d = merge_density gf p.P.n_registers in
  let tiny_p = P.tiny ~seed:2 in
  let tiny_d = merge_density (G.generate tiny_p) tiny_p.P.n_registers in
  check "flat composes something" true (flat_d > 0.0);
  check
    (Printf.sprintf "flat merge density %.3f well below tiny's %.3f" flat_d
       tiny_d)
    true
    (flat_d < 0.6 *. tiny_d)

let () =
  Alcotest.run "mbr_designgen"
    [
      ( "structure",
        [
          Alcotest.test_case "register count" `Quick test_register_count;
          Alcotest.test_case "netlist valid" `Quick test_netlist_valid;
          Alcotest.test_case "placement legal" `Quick test_placement_legal;
          Alcotest.test_case "all registers placed" `Quick test_all_registers_placed;
          Alcotest.test_case "every D pin driven" `Quick test_every_d_pin_driven;
          Alcotest.test_case "clock domains" `Quick test_clock_domains_exist;
          Alcotest.test_case "scan partitions" `Quick test_scan_registers_have_partitions;
          Alcotest.test_case "gating enables" `Quick test_gated_registers_have_enables;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_design;
          Alcotest.test_case "width histogram" `Quick test_width_histogram;
          Alcotest.test_case "failing fraction" `Quick test_failing_fraction_calibrated;
          Alcotest.test_case "timing acyclic" `Quick test_timing_graph_acyclic;
          Alcotest.test_case "scaled profile" `Quick test_scaled_profile;
          Alcotest.test_case "flat profile is aggregation-hostile" `Quick
            test_flat_profile;
        ] );
    ]
