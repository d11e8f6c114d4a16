(* Useful skew after composition (Fig. 4): composition only merges
   registers with similar D/Q slacks precisely so that one clock offset
   per MBR can still fix its violations. This example shows the skew
   solver recovering timing on a composed design, and why merging
   registers with OPPOSITE skew needs would have been a mistake.

   Run with: dune exec examples/useful_skew.exe *)

module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Compat = Mbr_core.Compat
module Engine = Mbr_sta.Engine
module Skew = Mbr_sta.Skew
module Rect = Mbr_geom.Rect

let () =
  print_endline "=== opposite skew pressure (section 2) ===";
  let mk cid d_slack q_slack =
    let footprint = Rect.make ~lx:0.0 ~ly:0.0 ~hx:2.0 ~hy:1.2 in
    Compat.
      {
        cid;
        bits = 1;
        func_class = "dff";
        clock = 0;
        enable = None;
        reset = None;
        scan = None;
        drive_res = 2.0;
        d_slack;
        q_slack;
        footprint;
        feasible = Rect.expand footprint 10.0;
        center = Rect.center footprint;
      }
  in
  let needs_later = mk 0 (-40.0) 30.0 (* violating D: wants clock later *) in
  let needs_earlier = mk 1 35.0 (-25.0) (* violating Q: wants clock earlier *) in
  let agree = mk 2 (-30.0) 20.0 in
  let cfg = Compat.default_config in
  Printf.printf "late-wanting + early-wanting  -> timing compatible: %b\n"
    (Compat.timing_compatible cfg needs_later needs_earlier);
  Printf.printf "late-wanting + late-wanting   -> timing compatible: %b\n"
    (Compat.timing_compatible cfg needs_later agree);
  print_endline
    "one MBR gets one clock arrival; members must pull in the same direction.";

  print_endline "\n=== useful skew on a composed design ===";
  let g = G.generate (P.tiny ~seed:1101) in
  let options = { Flow.default_options with Flow.skew = None; resize = false } in
  let r =
    Flow.run ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  Printf.printf "composed %d MBRs; timing before skew: tns %.1f ps, %d failing\n"
    r.Flow.n_merges r.Flow.after.Metrics.tns r.Flow.after.Metrics.failing;
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let report = Skew.optimize eng in
  Printf.printf "after useful skew:             tns %.1f ps (was %.1f)\n"
    report.Skew.tns_after report.Skew.tns_before;
  Printf.printf "                               wns %.1f ps (was %.1f)\n"
    report.Skew.wns_after report.Skew.wns_before;
  Printf.printf "max |skew| used: %.1f ps (bound %.1f), %d sweeps\n"
    report.Skew.max_abs_skew Skew.default_config.Skew.bound report.Skew.sweeps_run;
  Printf.printf "failing endpoints now: %d\n" (Engine.failing_endpoints eng);
  print_endline
    "\nthe same offsets would be impossible if composition had merged\n\
     registers with dissimilar or opposing slacks — which is why timing\n\
     compatibility gates the merge in the first place."
