(* Tests for Mbr_core.Power: unit conversions, the paper's 20-40 %
   clock-share claim on generated designs, and the headline effect —
   composition lowers clock power. *)

module Power = Mbr_core.Power
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-6))

let lib = Presets.default ()

let cfg =
  { Power.vdd = 1.0; clock_period = 1000.0; data_activity = 0.5; wire_cap = 0.2 }

(* a single register, clock pin cap known exactly, everything co-located *)
let single_reg () =
  let d = Design.create ~name:"p" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let root = Design.add_clock_root d "uclk" clk in
  let cell = Library.find lib "DFF1_X1" in
  let attrs =
    Types.
      { lib_cell = cell; fixed = false; size_only = false; scan = None; gate_enable = None }
  in
  let r =
    Design.add_register d "r" attrs
      (Design.simple_conn ~d:[| None |] ~q:[| None |] ~clock:clk)
  in
  let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:20.0 ~hy:20.0 in
  let pl = Placement.create (Floorplan.make ~core ~row_height:1.2 ~site_width:0.2) d in
  let at = Point.make 5.0 6.0 in
  Placement.set pl r at;
  Placement.set pl root at;
  (d, pl, cell)

let test_units () =
  (* one sink, zero clock wire (co-located root), no signal nets:
     P = 1000 * C * V^2 / period uW with V=1, period=1000 -> P = C *)
  let _, pl, cell = single_reg () in
  let r = Power.estimate ~config:cfg pl in
  (* clock cap here = the register's clock pin plus ~1 um of root wire *)
  check "clock power ~ pin cap" true
    (Float.abs (r.Power.clock_power -. cell.Mbr_liberty.Cell.clock_pin_cap) < 0.5);
  checkf "no signal power" 0.0 r.Power.signal_power;
  check "leakage from the cell" true
    (Float.abs (r.Power.leakage_power -. (cell.Mbr_liberty.Cell.leakage /. 1000.0))
    < 1e-9);
  check "total adds up" true
    (Float.abs
       (r.Power.total
       -. (r.Power.clock_power +. r.Power.signal_power +. r.Power.leakage_power))
    < 1e-9)

let test_faster_clock_more_power () =
  let _, pl, _ = single_reg () in
  let slow = Power.estimate ~config:cfg pl in
  let fast = Power.estimate ~config:{ cfg with Power.clock_period = 500.0 } pl in
  checkf "halving the period doubles clock power"
    (2.0 *. slow.Power.clock_power) fast.Power.clock_power

let test_vdd_quadratic () =
  let _, pl, _ = single_reg () in
  let v1 = Power.estimate ~config:cfg pl in
  let v2 = Power.estimate ~config:{ cfg with Power.vdd = 2.0 } pl in
  checkf "4x at double vdd" (4.0 *. v1.Power.clock_power) v2.Power.clock_power

let test_clock_share_in_paper_range () =
  let g = G.generate (P.tiny ~seed:515) in
  let r =
    Power.estimate ~config:(Power.config_of_sta g.G.sta_config) g.G.placement
  in
  (* §1: clock is 20-40 % of dynamic power for synchronous designs *)
  check "clock share plausible" true
    (r.Power.clock_fraction > 0.15 && r.Power.clock_fraction < 0.55);
  check "all components positive" true
    (r.Power.clock_power > 0.0 && r.Power.signal_power > 0.0
    && r.Power.leakage_power > 0.0)

let test_composition_reduces_clock_power () =
  let g = G.generate (P.tiny ~seed:616) in
  let r =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  check "clock power drops" true
    (r.Flow.after.Metrics.clk_power < r.Flow.before.Metrics.clk_power);
  check "share reported" true
    (r.Flow.before.Metrics.clk_power_frac > 0.0
    && r.Flow.before.Metrics.clk_power_frac < 1.0)

(* A carried state belongs to one placement: handing it an engine (or
   a routing state) over another, even a copy of it, is a caller bug. *)
let test_state_bound_to_placement () =
  let g = G.generate (P.tiny ~seed:717) in
  let copy = Placement.copy g.G.placement in
  let st = Metrics.create_state g.G.placement in
  let eng = Engine.build ~config:g.G.sta_config copy in
  check "collect rejects an engine over another placement" true
    (match Metrics.collect st eng g.G.library with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let route = Mbr_route.Estimator.create copy in
  ignore (Mbr_route.Estimator.update route);
  check "Power.update rejects a route state over another placement" true
    (match
       Power.update (Power.create g.G.placement)
         ~cts:(Mbr_cts.Synth.synthesize g.G.placement) ~route
         ~regs:(Mbr_netlist.Design.registers g.G.design)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "mbr_core.power"
    [
      ( "model",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "frequency scaling" `Quick test_faster_clock_more_power;
          Alcotest.test_case "vdd quadratic" `Quick test_vdd_quadratic;
        ] );
      ( "designs",
        [
          Alcotest.test_case "clock share 20-40%" `Quick test_clock_share_in_paper_range;
          Alcotest.test_case "composition reduces clock power" `Quick
            test_composition_reduces_clock_power;
          Alcotest.test_case "a state is bound to its placement" `Quick
            test_state_bound_to_placement;
        ] );
    ]
