(* Interchange: save a design as Liberty + structural Verilog + DEF,
   reload it from the text, and verify the reloaded copy times and
   composes identically — the workflow an adopter with an existing
   netlist would follow (see also `mbrc export` / `mbrc compose`).

   Run with: dune exec examples/interchange.exe *)

module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Verilog = Mbr_export.Verilog
module Def = Mbr_export.Def
module Liberty_io = Mbr_liberty.Liberty_io

let count_lines s =
  List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))

let () =
  let g = G.generate (P.tiny ~seed:2468) in
  Printf.printf "original: %d cells, %d nets, %d registers\n\n"
    (Design.n_cells g.G.design) (Design.n_nets g.G.design)
    (List.length (Design.registers g.G.design));

  print_endline "=== save: three industry-format views of the design ===";
  let lib_text =
    Liberty_io.to_liberty ~name:"demo28" ~gates:(G.gate_cells ()) g.G.library
  in
  let v_text = Verilog.to_verilog ~module_name:"demo_top" g.G.design in
  let def_text = Def.to_def g.G.placement in
  Printf.printf "liberty : %5d lines (%d cells)\n" (count_lines lib_text)
    (List.length (Mbr_liberty.Library.cells g.G.library));
  Printf.printf "verilog : %5d lines\n" (count_lines v_text);
  Printf.printf "def     : %5d lines\n\n" (count_lines def_text);

  print_endline "=== reload from the text alone ===";
  let library, gate_cells = Liberty_io.of_liberty_full lib_text in
  let design =
    Verilog.of_verilog ~library ~gates:(Verilog.resolver_of_gates gate_cells)
      v_text
  in
  let placement = Def.of_def design def_text in
  Printf.printf "reloaded: %d cells, %d registers, netlist valid: %b\n\n"
    (Design.n_cells design)
    (List.length (Design.registers design))
    (Design.validate design = []);

  print_endline "=== the reloaded copy behaves identically ===";
  let timing pl =
    let eng = Engine.build ~config:g.G.sta_config pl in
    (Engine.wns eng, Engine.tns eng, Engine.failing_endpoints eng)
  in
  let w1, t1, f1 = timing g.G.placement in
  let w2, t2, f2 = timing placement in
  Printf.printf "original wns/tns/failing: %.1f / %.1f / %d\n" w1 t1 f1;
  Printf.printf "reloaded wns/tns/failing: %.1f / %.1f / %d\n" w2 t2 f2;
  (* DEF quantizes coordinates to 1/1000 um, so wire delays may shift
     by fractions of a femtosecond; compare at 0.1 ps *)
  Printf.printf "identical timing (within DEF quantization): %b\n\n"
    (Float.abs (w1 -. w2) < 0.1 && Float.abs (t1 -. t2) < 0.1 && f1 = f2);

  let r =
    Flow.run ~design ~placement ~library ~sta_config:g.G.sta_config ()
  in
  Printf.printf "composition on the reloaded design: %d MBRs, %d -> %d registers\n"
    r.Flow.n_merges r.Flow.before.Metrics.total_regs
    r.Flow.after.Metrics.total_regs;
  Printf.printf "composed copy can be saved again: %d verilog lines\n"
    (count_lines (Verilog.to_verilog design))
