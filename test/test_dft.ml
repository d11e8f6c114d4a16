(* Tests for Mbr_dft.Scan_stitch: chain construction, verification,
   ordered-section order, per-bit-scan threading, idempotency (no edit
   and no net on a second stitch), chain-less registers, and
   integration with the composition flow and ECO rounds. *)

module Scan_stitch = Mbr_dft.Scan_stitch
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Flow = Mbr_core.Flow
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let lib = Presets.default ()

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:60.0 ~hy:60.0

let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2

let fresh () =
  let d = Design.create ~name:"dft" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let _ = Design.add_clock_root d "uclk" clk in
  let rst = Design.add_net d "rst" in
  let se = Design.add_net d "se" in
  let pl = Placement.create fp d in
  (d, pl, clk, rst, se)

let add_scan_reg d pl clk rst se ~name ~cell ~partition ?section x =
  let attrs =
    Types.
      {
        lib_cell = cell;
        fixed = false;
        size_only = false;
        scan = Some { partition; section };
        gate_enable = None;
      }
  in
  let bits = cell.Cell_lib.bits in
  let conn =
    {
      Design.d_nets = Array.make bits None;
      q_nets = Array.make bits None;
      clock = clk;
      reset = Some rst;
      scan_enable = Some se;
      scan_ins = [];
      scan_outs = [];
    }
  in
  let r = Design.add_register d name attrs conn in
  Placement.set pl r (Point.make x 2.4);
  r

let sdffr1 = Library.find lib "SDFFR1_X1"

let sdffr2 = Library.find lib "SDFFR2_X1"

let sdffr4_pb = Library.find lib "SDFFR4_X1_PB"

let test_single_chain () =
  let d, pl, clk, rst, se = fresh () in
  let _r1 = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _r2 = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let _r3 = add_scan_reg d pl clk rst se ~name:"c" ~cell:sdffr1 ~partition:0 15.0 in
  let r = Scan_stitch.stitch pl in
  checki "one chain" 1 r.Scan_stitch.n_chains;
  checki "three hops" 3 r.Scan_stitch.n_hops;
  check "wire measured" true (r.Scan_stitch.wirelength > 0.0);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d);
  Alcotest.(check (list string)) "netlist valid" [] (Design.validate d)

let test_partitions_get_separate_chains () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:1 10.0 in
  let r = Scan_stitch.stitch pl in
  checki "two chains" 2 r.Scan_stitch.n_chains;
  check "two SI ports" true
    (Design.find_cell d "scan_si0" <> None && Design.find_cell d "scan_si1" <> None);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_nearest_neighbour_order () =
  (* registers placed 0, 20, 10: chain should visit 0 -> 10 -> 20, not
     input order *)
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 0.5 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 20.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"c" ~cell:sdffr1 ~partition:0 10.0 in
  let r = Scan_stitch.stitch pl in
  (* greedy walk: total wire ~ 20 plus pin offsets, not ~ 40 *)
  check "short chain" true (r.Scan_stitch.wirelength < 30.0);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_ordered_sections_first_and_in_order () =
  let d, pl, clk, rst, se = fresh () in
  (* section positions deliberately anti-spatial *)
  let _ = add_scan_reg d pl clk rst se ~name:"s2" ~cell:sdffr1 ~partition:0
      ~section:(1, 2) 2.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"s0" ~cell:sdffr1 ~partition:0
      ~section:(1, 0) 20.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"s1" ~cell:sdffr1 ~partition:0
      ~section:(1, 1) 10.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"free" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = Scan_stitch.stitch pl in
  Alcotest.(check (list string)) "verified (order included)" []
    (Scan_stitch.verify d)

let test_internal_scan_mbr_one_hop () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"m" ~cell:sdffr2 ~partition:0 5.0 in
  let r = Scan_stitch.stitch pl in
  checki "2-bit internal-scan cell = one hop" 1 r.Scan_stitch.n_hops;
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_per_bit_scan_threads_every_bit () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"pb" ~cell:sdffr4_pb ~partition:0 5.0 in
  let r = Scan_stitch.stitch pl in
  checki "4 hops for a per-bit 4-bit cell" 4 r.Scan_stitch.n_hops;
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_restitch_idempotent () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let r1 = Scan_stitch.stitch pl in
  let revision = Design.revision d and n_nets = Design.n_nets d in
  let r2 = Scan_stitch.stitch pl in
  checki "same hops" r1.Scan_stitch.n_hops r2.Scan_stitch.n_hops;
  checki "no edit logged" revision (Design.revision d);
  checki "no net added" n_nets (Design.n_nets d);
  Alcotest.(check (list string)) "still verified" [] (Scan_stitch.verify d);
  Alcotest.(check (list string)) "netlist valid after restitch" [] (Design.validate d)

(* A scan register outside every partition, wired onto the chain's
   nets (its SI beside a chain SI, its SO as a second driver of the
   scan-out net), ends with both scan pins unconnected. *)
let test_chainless_register_unwired () =
  let d, pl, clk, rst, se = fresh () in
  let a = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let _ = Scan_stitch.stitch pl in
  let net_of cid kind =
    match Design.pin_of d cid kind with
    | Some pid -> (Design.pin d pid).Types.p_net
    | None -> Alcotest.fail "scan pin"
  in
  let so_port =
    match Design.find_cell d "scan_so0" with Some c -> c | None -> Alcotest.fail "port"
  in
  let net_exn = function Some n -> n | None -> Alcotest.fail "chain net" in
  let attrs =
    Types.
      { lib_cell = sdffr1; fixed = false; size_only = false; scan = None; gate_enable = None }
  in
  let c =
    Design.add_register d "c" attrs
      {
        Design.d_nets = [| None |];
        q_nets = [| None |];
        clock = clk;
        reset = Some rst;
        scan_enable = Some se;
        scan_ins = [ (0, net_exn (net_of a (Types.Pin_scan_out 0))) ];
        scan_outs = [ (0, net_exn (net_of so_port Types.Pin_port)) ];
      }
  in
  Placement.set pl c (Point.make 7.0 2.4);
  check "verify sees the stray wiring" true (Scan_stitch.verify d <> []);
  let _ = Scan_stitch.stitch pl in
  check "SI unconnected" true (net_of c (Types.Pin_scan_in 0) = None);
  check "SO unconnected" true (net_of c (Types.Pin_scan_out 0) = None);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d);
  Alcotest.(check (list string)) "netlist valid" [] (Design.validate d)

let test_verify_catches_broken_chain () =
  let d, pl, clk, rst, se = fresh () in
  let r1 = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let _ = Scan_stitch.stitch pl in
  (* snip the chain mid-way *)
  (match Design.pin_of d r1 (Types.Pin_scan_out 0) with
  | Some pid -> Design.disconnect d pid
  | None -> Alcotest.fail "SO pin");
  check "verify reports a problem" true (Scan_stitch.verify d <> [])

(* Restitching mints a net only for a scan-out pin without one, so
   across ECO rounds a recompose adds at most as many nets as the round
   (the perturb and the recompose) created scan-out pins. *)
let test_eco_rounds_keep_nets () =
  let g = G.generate (P.scaled P.d1 0.4) in
  let d = g.G.design in
  let s =
    Flow.Session.create ~design:d ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  ignore (Flow.Session.recompose s);
  for round = 1 to 6 do
    let pins = Design.n_pins d in
    ignore (Mbr_designgen.Eco.perturb (Mbr_util.Rng.create round) g);
    let nets = Design.n_nets d in
    ignore (Flow.Session.recompose s);
    let new_so = ref 0 in
    for pid = pins to Design.n_pins d - 1 do
      match (Design.pin d pid).Types.p_kind with
      | Types.Pin_scan_out _ -> incr new_so
      | _ -> ()
    done;
    let added = Design.n_nets d - nets in
    if added > !new_so then
      Alcotest.failf "round %d: recompose added %d nets for %d new scan-out pins"
        round added !new_so;
    Alcotest.(check (list string)) "chains verified" [] (Scan_stitch.verify d);
    Alcotest.(check (list string)) "netlist valid" [] (Design.validate d)
  done

let test_generated_design_chains_ok () =
  let g = G.generate (P.tiny ~seed:606) in
  Alcotest.(check (list string)) "chains verified at generation" []
    (Scan_stitch.verify g.G.design)

let test_flow_restitches () =
  let g = G.generate (P.tiny ~seed:607) in
  let r =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  check "merges happened" true (r.Flow.n_merges > 0);
  check "scan wl reported" true
    ((Scan_stitch.stitch g.G.placement).Scan_stitch.wirelength > 0.0);
  Alcotest.(check (list string)) "chains verified after composition" []
    (Scan_stitch.verify g.G.design);
  Alcotest.(check (list string)) "netlist valid" [] (Design.validate g.G.design)

let () =
  Alcotest.run "mbr_dft"
    [
      ( "stitch",
        [
          Alcotest.test_case "single chain" `Quick test_single_chain;
          Alcotest.test_case "separate partitions" `Quick
            test_partitions_get_separate_chains;
          Alcotest.test_case "nearest-neighbour order" `Quick
            test_nearest_neighbour_order;
          Alcotest.test_case "ordered sections" `Quick
            test_ordered_sections_first_and_in_order;
          Alcotest.test_case "internal scan = one hop" `Quick
            test_internal_scan_mbr_one_hop;
          Alcotest.test_case "per-bit scan threads bits" `Quick
            test_per_bit_scan_threads_every_bit;
          Alcotest.test_case "restitch idempotent" `Quick test_restitch_idempotent;
          Alcotest.test_case "chain-less register unwired" `Quick
            test_chainless_register_unwired;
          Alcotest.test_case "verify catches breaks" `Quick
            test_verify_catches_broken_chain;
        ] );
      ( "integration",
        [
          Alcotest.test_case "generated design chains" `Quick
            test_generated_design_chains_ok;
          Alcotest.test_case "flow restitches" `Quick test_flow_restitches;
          Alcotest.test_case "ECO rounds add nets only for new SO pins" `Quick
            test_eco_rounds_keep_nets;
        ] );
    ]
