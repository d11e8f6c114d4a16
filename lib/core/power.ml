module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Estimator = Mbr_route.Estimator
module Synth = Mbr_cts.Synth
module Engine = Mbr_sta.Engine

type config = {
  vdd : float;
  clock_period : float;
  data_activity : float;
  wire_cap : float;
}

let config_of_sta (sta : Engine.config) =
  {
    vdd = 0.9;
    clock_period = sta.Engine.clock_period;
    data_activity = 0.25;
    wire_cap = sta.Engine.wire_cap;
  }

type report = {
  clock_power : float;
  signal_power : float;
  leakage_power : float;
  total : float;
  clock_fraction : float;
}

(* P[µW] = 1000 * C[fF] * Vdd^2 / period[ps] * activity:
   1 fF*V^2/ps = 1 mW = 1000 µW. *)
let dynamic_uw cfg ~cap ~activity =
  1000.0 *. cap *. cfg.vdd *. cfg.vdd *. activity /. cfg.clock_period

(* Running sums of the signal-cap loop; all-float, so updates never
   box. *)
type sums = { mutable sink_caps : float; mutable signal_cap : float }

(* One walk of a net's pins: adds every sink's input cap to
   [s.sink_caps] (in pin order) and tells whether an output pin drives
   the net. *)
let rec walk_pins dsg s driven = function
  | [] -> driven
  | pid :: rest ->
    if (Design.pin dsg pid).Types.p_dir = Types.Output then
      walk_pins dsg s true rest
    else begin
      s.sink_caps <- s.sink_caps +. Design.pin_cap dsg pid;
      walk_pins dsg s driven rest
    end

let estimate ?config ?cts ?route pl =
  let cfg =
    match config with
    | Some c -> c
    | None -> config_of_sta Engine.default_config
  in
  let dsg = Placement.design pl in
  let cts =
    match cts with Some c -> c | None -> Synth.synthesize pl
  in
  let route =
    match route with Some r -> r | None -> Estimator.estimate pl
  in
  let clock_power = dynamic_uw cfg ~cap:cts.Synth.total_cap ~activity:1.0 in
  let s = { sink_caps = 0.0; signal_cap = 0.0 } in
  for nid = 0 to Design.n_nets dsg - 1 do
    let n = Design.net dsg nid in
    if not n.Types.n_is_clock then begin
      s.sink_caps <- 0.0;
      if walk_pins dsg s false n.Types.n_pins then
        s.signal_cap <-
          s.signal_cap +. s.sink_caps
          +. (cfg.wire_cap *. route.Estimator.net_hpwl.(nid))
    end
  done;
  let signal_power = dynamic_uw cfg ~cap:s.signal_cap ~activity:cfg.data_activity in
  (* only registers leak in this model *)
  let leakage_power =
    List.fold_left
      (fun acc cid ->
        acc +. (Design.reg_attrs dsg cid).Types.lib_cell.Mbr_liberty.Cell.leakage)
      0.0 (Design.registers dsg)
    /. 1000.0
  in
  let dynamic = clock_power +. signal_power in
  {
    clock_power;
    signal_power;
    leakage_power;
    total = dynamic +. leakage_power;
    clock_fraction = (if dynamic > 0.0 then clock_power /. dynamic else 0.0);
  }
