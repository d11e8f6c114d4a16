module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Synth = Mbr_cts.Synth
module Estimator = Mbr_route.Estimator
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

let collect ?route_config eng lib =
  let pl = Engine.placement eng in
  let dsg = Placement.design pl in
  Engine.refresh eng;
  let cts =
    Trace.with_span ~name:"metrics.cts" (fun () -> Synth.synthesize pl)
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
    float_of_int cts.Synth.n_buffers *. Synth.default_config.Synth.buf_area
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
    tns = Engine.tns eng;
    wns = Engine.wns eng;
    failing = Engine.failing_endpoints eng;
    endpoints = Engine.n_endpoints eng;
    ovfl = route.Estimator.overflow_edges;
    utilization = Placement.utilization pl;
    corners = Engine.per_corner_wns_tns eng;
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
