module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Timing_view = Mbr_sta.Timing_view
module Synth = Mbr_cts.Synth
module Estimator = Mbr_route.Estimator
module Stats = Mbr_util.Stats
module Trace = Mbr_obs.Trace

type t = {
  cells : int;
  area : float;
  clk_wl : float;
  other_wl : float;
  total_regs : int;
  comp_regs : int;
  clk_bufs : int;
  clk_cap : float;
  clk_power : float;
  clk_power_frac : float;
  tns : float;
  wns : float;
  failing : int;
  endpoints : int;
  ovfl : int;
  utilization : float;
  corners : (string * float * float) list;
}

let collect ?route_config ?cts_config eng lib =
  let pl = Engine.placement eng in
  let dsg = Placement.design pl in
  let tv = Timing_view.of_engine eng in
  Engine.refresh eng;
  let cts =
    Trace.with_span ~name:"metrics.cts" (fun () ->
        Synth.synthesize ?config:cts_config pl)
  in
  let route =
    Trace.with_span ~name:"metrics.route" (fun () ->
        Estimator.estimate ?config:route_config pl)
  in
  let regs = Design.registers dsg in
  let comp_regs =
    List.length (List.filter (Compat.is_composable dsg lib) regs)
  in
  let buf_area =
    float_of_int cts.Synth.n_buffers
    *. (match cts_config with
       | Some c -> c.Synth.buf_area
       | None -> Synth.default_config.Synth.buf_area)
  in
  let power =
    Trace.with_span ~name:"metrics.power" (fun () ->
        Power.estimate ~config:(Power.config_of_sta (Engine.config eng)) ~cts
          ~route pl)
  in
  {
    cells = Design.n_cells dsg;
    area = Design.total_area dsg +. buf_area;
    clk_wl = cts.Synth.wirelength;
    other_wl = route.Estimator.signal_wl;
    total_regs = List.length regs;
    comp_regs;
    clk_bufs = cts.Synth.n_buffers;
    clk_cap = cts.Synth.total_cap;
    clk_power = power.Power.clock_power;
    clk_power_frac = power.Power.clock_fraction;
    tns = Timing_view.tns tv;
    wns = Timing_view.wns tv;
    failing = Timing_view.failing_endpoints tv;
    endpoints = Timing_view.n_endpoints tv;
    ovfl = route.Estimator.overflow_edges;
    utilization = Placement.utilization pl;
    corners = Timing_view.per_corner tv;
  }

let pp_row ppf m =
  Format.fprintf ppf
    "cells=%d area=%.0f clkWL=%.0f sigWL=%.0f regs=%d comp=%d bufs=%d \
     clkCap=%.1f clkPwr=%.1fuW(%.0f%%) tns=%.1f wns=%.1f fail=%d/%d ovfl=%d \
     util=%.2f"
    m.cells m.area m.clk_wl m.other_wl m.total_regs m.comp_regs m.clk_bufs
    m.clk_cap m.clk_power
    (100.0 *. m.clk_power_frac)
    m.tns m.wns m.failing m.endpoints m.ovfl m.utilization

let save_pct ~before ~after =
  let f = float_of_int in
  [
    ("area", Stats.pct_change before.area after.area);
    ("clk_wl", Stats.pct_change before.clk_wl after.clk_wl);
    ("other_wl", Stats.pct_change before.other_wl after.other_wl);
    ("total_regs", Stats.pct_change (f before.total_regs) (f after.total_regs));
    ("comp_regs", Stats.pct_change (f before.comp_regs) (f after.comp_regs));
    ("clk_bufs", Stats.pct_change (f before.clk_bufs) (f after.clk_bufs));
    ("clk_cap", Stats.pct_change before.clk_cap after.clk_cap);
    ("clk_power", Stats.pct_change before.clk_power after.clk_power);
    ("tns", Stats.pct_change before.tns after.tns);
    ("failing", Stats.pct_change (f before.failing) (f after.failing));
    ("ovfl", Stats.pct_change (f before.ovfl) (f after.ovfl));
  ]
