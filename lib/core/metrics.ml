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

type state = { pl : Placement.t; route : Estimator.t; power : Power.t }

let create_state ?route_config pl =
  { pl; route = Estimator.create ?config:route_config pl; power = Power.create pl }

let m_nets_swept = Mbr_obs.Metrics.counter "metrics.nets_swept"

let collect st eng lib =
  let pl = Engine.placement eng in
  if pl != st.pl then
    invalid_arg "Metrics.collect: the engine's placement is not the state's";
  let dsg = Placement.design pl in
  Engine.refresh eng;
  let cts =
    Trace.with_span ~name:"metrics.cts" (fun () -> Synth.synthesize pl)
  in
  let route =
    Trace.with_span ~name:"metrics.route"
      ~args:
        (if Trace.is_enabled () then
           [ ("nets", Trace.Int (Estimator.stale st.route)) ]
         else [])
      (fun () -> Estimator.update st.route)
  in
  Mbr_obs.Metrics.incr ~by:route.Estimator.nets_swept m_nets_swept;
  let regs = Design.registers dsg in
  let comp_regs =
    List.length (List.filter (Compat.is_composable dsg lib) regs)
  in
  let buf_area =
    float_of_int cts.Synth.n_buffers *. Synth.default_config.Synth.buf_area
  in
  let power =
    Trace.with_span ~name:"metrics.power" (fun () ->
        Power.update ~config:(Power.config_of_sta (Engine.config eng)) st.power
          ~cts ~route:st.route ~regs)
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
