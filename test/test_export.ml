(* Tests for Mbr_export: Verilog and DEF writers/parsers, including the
   full save/reload/compose loop on a generated design. *)

module Verilog = Mbr_export.Verilog
module Def = Mbr_export.Def
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let g = G.generate (P.tiny ~seed:321)

let reimport () =
  let src = Verilog.to_verilog g.G.design in
  Verilog.of_verilog ~library:g.G.library ~gates:G.gate_resolver src

let test_verilog_shape () =
  let src = Verilog.to_verilog ~module_name:"top" g.G.design in
  check "module header" true (contains_sub src "module top (");
  check "ends" true (contains_sub src "endmodule");
  check "has wires" true (contains_sub src "  wire ");
  check "has input" true (contains_sub src "  input ");
  check "scan attr present" true (contains_sub src "mbr_scan_partition");
  check "clock root instance" true (contains_sub src "CLKROOT ")

let test_verilog_roundtrip_counts () =
  let d2 = reimport () in
  checki "cells" (Design.n_cells g.G.design) (Design.n_cells d2);
  checki "registers"
    (List.length (Design.registers g.G.design))
    (List.length (Design.registers d2));
  Alcotest.(check (list string)) "reimport valid" [] (Design.validate d2)

let test_verilog_roundtrip_attrs () =
  let d2 = reimport () in
  let summarize dsg =
    List.map
      (fun cid ->
        let c = Design.cell dsg cid in
        let a = Design.reg_attrs dsg cid in
        ( c.Types.c_name,
          a.Types.lib_cell.Mbr_liberty.Cell.name,
          a.Types.fixed,
          a.Types.size_only,
          a.Types.scan,
          a.Types.gate_enable ))
      (Design.registers dsg)
    |> List.sort compare
  in
  check "register attributes identical" true (summarize g.G.design = summarize d2)

let test_verilog_roundtrip_connectivity () =
  let d2 = reimport () in
  (* compare driver/sink structure per register D pin, via net -> driver
     cell-name maps *)
  let d_driver dsg cid b =
    match Design.pin_of dsg cid (Types.Pin_d b) with
    | Some pid -> (
      match (Design.pin dsg pid).Types.p_net with
      | Some nid -> (
        match Design.driver dsg nid with
        | Some dp -> Some (Design.cell dsg (Design.pin dsg dp).Types.p_cell).Types.c_name
        | None -> None)
      | None -> None)
    | None -> None
  in
  let name_of dsg cid = (Design.cell dsg cid).Types.c_name in
  let by_name dsg =
    List.map (fun cid -> (name_of dsg cid, cid)) (Design.registers dsg)
  in
  let m1 = by_name g.G.design and m2 = by_name d2 in
  List.iter
    (fun (n, c1) ->
      match List.assoc_opt n m2 with
      | Some c2 ->
        let bits = (Design.reg_attrs g.G.design c1).Types.lib_cell.Mbr_liberty.Cell.bits in
        for b = 0 to bits - 1 do
          check
            (Printf.sprintf "driver of %s.D%d" n b)
            true
            (d_driver g.G.design c1 b = d_driver d2 c2 b)
        done
      | None -> Alcotest.failf "register %s missing after reimport" n)
    m1

let test_verilog_parse_errors () =
  let expect src frag =
    match Verilog.of_verilog ~library:g.G.library ~gates:G.gate_resolver src with
    | _ -> Alcotest.failf "expected parse error about %s" frag
    | exception Verilog.Parse_error msg ->
      check (Printf.sprintf "mentions %s (got %s)" frag msg) true
        (contains_sub msg frag)
  in
  expect "wire x;" "module";
  expect "module m (a); input a; BOGUS_MASTER u0 (.Y(a)); endmodule" "unknown master";
  expect "module m (a); DFF1_X1 r (.D0(a)); endmodule" "direction";
  expect "module m (); wire w; " "endmodule"

let test_def_roundtrip () =
  let src = Def.to_def g.G.placement in
  check "die area present" true (contains_sub src "DIEAREA");
  check "components" true (contains_sub src "COMPONENTS");
  let pl2 = Def.of_def g.G.design src in
  (* every placed cell comes back at the same spot *)
  Placement.iter
    (fun cid p ->
      match Placement.location_opt pl2 cid with
      | Some q ->
        check "location preserved" true (Mbr_geom.Point.manhattan p q < 2e-3)
      | None -> Alcotest.fail "cell lost in DEF roundtrip")
    g.G.placement;
  let fp1 = Placement.floorplan g.G.placement in
  let fp2 = Placement.floorplan pl2 in
  check "core preserved" true
    (Mbr_geom.Rect.half_perimeter fp1.Mbr_place.Floorplan.core
     -. Mbr_geom.Rect.half_perimeter fp2.Mbr_place.Floorplan.core
     |> Float.abs < 1e-2)

let test_def_errors () =
  let expect src frag =
    match Def.of_def g.G.design src with
    | _ -> Alcotest.failf "expected DEF error about %s" frag
    | exception Def.Parse_error msg ->
      check (Printf.sprintf "mentions %s (got %s)" frag msg) true (contains_sub msg frag)
  in
  expect "VERSION 5.8 ;\nEND DESIGN" "DIEAREA";
  expect "DIEAREA ( 0 0 ) ( 1000 1000 ) ;\n- ghost DFF1_X1 + PLACED ( 0 0 ) N ;"
    "unknown component"


(* ---- SVG ---- *)

let test_svg_renders () =
  let svg = Mbr_export.Svg.render ~title:"before" g.G.placement in
  check "svg document" true (contains_sub svg "<svg xmlns=");
  check "closes" true (contains_sub svg "</svg>");
  check "has legend" true (contains_sub svg "8-bit");
  (* one rect per placed register at least *)
  let rects =
    List.length
      (String.split_on_char '\n' svg
      |> List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "<rect"))
  in
  check "enough rectangles" true
    (rects > List.length (Design.registers g.G.design))

let test_svg_highlight () =
  let some_reg = List.nth (Design.registers g.G.design) 0 in
  let svg = Mbr_export.Svg.render ~highlight:[ some_reg ] g.G.placement in
  check "highlight stroke present" true (contains_sub svg "stroke-width=\"1.6\"");
  (* unknown ids are ignored rather than failing *)
  let svg2 = Mbr_export.Svg.render ~highlight:[ 999999 ] g.G.placement in
  ignore svg2

(* the full loop: export both views, reimport, and the flow still runs *)
let test_full_save_load_compose () =
  let v = Verilog.to_verilog g.G.design in
  let d = Def.to_def g.G.placement in
  let design = Verilog.of_verilog ~library:g.G.library ~gates:G.gate_resolver v in
  let placement = Def.of_def design d in
  let eng = Engine.build ~config:g.G.sta_config placement in
  check "timing runs on reloaded design" true (Float.is_finite (Engine.wns eng));
  let r =
    Flow.run ~design ~placement ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  check "composition works after reload" true (r.Flow.n_merges > 0);
  check "registers drop" true
    (r.Flow.after.Metrics.total_regs < r.Flow.before.Metrics.total_regs);
  Alcotest.(check (list string)) "valid" [] (Design.validate design)

let () =
  Alcotest.run "mbr_export"
    [
      ( "verilog",
        [
          Alcotest.test_case "shape" `Quick test_verilog_shape;
          Alcotest.test_case "roundtrip counts" `Quick test_verilog_roundtrip_counts;
          Alcotest.test_case "roundtrip attrs" `Quick test_verilog_roundtrip_attrs;
          Alcotest.test_case "roundtrip connectivity" `Quick
            test_verilog_roundtrip_connectivity;
          Alcotest.test_case "parse errors" `Quick test_verilog_parse_errors;
        ] );
      ( "def",
        [
          Alcotest.test_case "roundtrip" `Quick test_def_roundtrip;
          Alcotest.test_case "errors" `Quick test_def_errors;
        ] );
      ( "svg",
        [
          Alcotest.test_case "renders" `Quick test_svg_renders;
          Alcotest.test_case "highlight" `Quick test_svg_highlight;
        ] );
      ( "integration",
        [ Alcotest.test_case "save/load/compose" `Quick test_full_save_load_compose ] );
    ]
