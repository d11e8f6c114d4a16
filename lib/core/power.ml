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

(* Per net: the stamp its pins were last walked at (-1 before), and
   whether an output pin drives it and its sinks' input caps summed in
   pin order (false and 0 for clock nets). *)
type t = {
  pl : Placement.t;
  mutable swept : int array;
  mutable driven : bool array;
  mutable sink : float array;
}

let create pl =
  let n = Design.n_nets (Placement.design pl) in
  {
    pl;
    swept = Array.make n (-1);
    driven = Array.make n false;
    sink = Array.make n 0.0;
  }

(* The per-net arrays cover every net of the design; a net added since
   the last update reads as never walked. *)
let grow_nets t n =
  let old = Array.length t.swept in
  if n > old then begin
    let cap = max n (2 * old) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.swept <- grow t.swept (-1);
    t.driven <- grow t.driven false;
    t.sink <- grow t.sink 0.0
  end

let update ?config t ~cts ~route ~regs =
  if Estimator.placement route != t.pl then
    invalid_arg "Power.update: route state over another placement";
  let cfg =
    match config with
    | Some c -> c
    | None -> config_of_sta Engine.default_config
  in
  let dsg = Placement.design t.pl in
  let n = Design.n_nets dsg in
  grow_nets t n;
  let clock_power = dynamic_uw cfg ~cap:cts.Synth.total_cap ~activity:1.0 in
  let s = { sink_caps = 0.0; signal_cap = 0.0 } in
  for nid = 0 to n - 1 do
    let stamp = Placement.net_stamp t.pl nid in
    if stamp <> t.swept.(nid) then begin
      t.swept.(nid) <- stamp;
      let net = Design.net dsg nid in
      if not net.Types.n_is_clock then begin
        s.sink_caps <- 0.0;
        t.driven.(nid) <- walk_pins dsg s false net.Types.n_pins;
        t.sink.(nid) <- s.sink_caps
      end
    end
  done;
  (* driven non-clock nets in id order, each added as
     [(acc + sinks) + wire]: a full walk's association *)
  for nid = 0 to n - 1 do
    if t.driven.(nid) then
      s.signal_cap <-
        s.signal_cap +. t.sink.(nid) +. (cfg.wire_cap *. Estimator.hpwl route nid)
  done;
  let signal_power = dynamic_uw cfg ~cap:s.signal_cap ~activity:cfg.data_activity in
  (* only registers leak in this model *)
  let leakage_power =
    List.fold_left
      (fun acc cid ->
        acc +. (Design.reg_attrs dsg cid).Types.lib_cell.Mbr_liberty.Cell.leakage)
      0.0 regs
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

let estimate ?config ?cts pl =
  let cts = match cts with Some c -> c | None -> Synth.synthesize pl in
  let route = Estimator.create pl in
  ignore (Estimator.update route);
  update ?config (create pl) ~cts ~route
    ~regs:(Design.registers (Placement.design pl))
