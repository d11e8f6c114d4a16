(** Power estimation — the quantity the paper actually optimizes for
    (§1: clock distribution is 20–40 % of a synchronous design's
    dynamic power).

    Dynamic power follows the standard 0.5·α·f·C·V² model. The clock
    network toggles every cycle (α = 1, twice the data rate is already
    folded into the 0.5·f convention for clocks: two edges per period
    drive CV² of charge through the network per cycle); data nets use a
    configurable activity factor. Capacitances come from the clock tree
    ({!Mbr_cts.Synth}) and the signal-net pin+wire loads; leakage comes
    from the library cells. *)

type config = {
  vdd : float;  (** supply, V (default 0.9 — 28 nm-flavoured) *)
  clock_period : float;  (** ps *)
  data_activity : float;  (** toggles per cycle on signal nets (default 0.25) *)
  wire_cap : float;  (** fF per µm, matching the STA config *)
}

val config_of_sta : Mbr_sta.Engine.config -> config
(** Defaults with the period and wire cap taken from an STA config. *)

type report = {
  clock_power : float;  (** µW: sinks + clock wire + buffers, every cycle *)
  signal_power : float;  (** µW: data pin+wire caps at [data_activity] *)
  leakage_power : float;  (** µW from cell leakage *)
  total : float;
  clock_fraction : float;  (** clock_power / total dynamic *)
}

type t
(** Per-net signal-cap work carried across estimates of one placement:
    each net's driver flag and sink input caps (summed in pin order),
    re-derived only for the nets whose
    {!Mbr_place.Placement.net_stamp} moved since the state last walked
    them. A retype, the one edit that changes pin caps, moves the
    stamps of the cell's nets, and a pin joining or leaving a net moves
    that net's. *)

val create : Mbr_place.Placement.t -> t
(** A state that has walked no net: its first {!update} walks them
    all. *)

val update :
  ?config:config ->
  t ->
  cts:Mbr_cts.Synth.result ->
  route:Mbr_route.Estimator.t ->
  regs:Mbr_netlist.Types.cell_id list ->
  report
(** The report for the placement as it is now, equal by bits to
    {!estimate} with the same tree. [route] must be a routing state
    over the same placement, already {!Mbr_route.Estimator.update}d:
    each signal net's wire cap is [wire_cap] × its
    {!Mbr_route.Estimator.hpwl}. The signal cap is re-summed over the
    driven non-clock nets in id order, each added as
    [(acc + sink caps) + wire cap], which is a full walk's association,
    so it does not depend on which nets were walked again. Clock
    capacitance comes from [cts]; leakage is summed over [regs] in
    list order, which must be the design's live registers as
    {!Mbr_netlist.Design.registers} lists them (ascending id), so a
    caller that already walked them hands its list over.
    Raises [Invalid_argument] when [route] is over another
    placement. *)

val estimate :
  ?config:config ->
  ?cts:Mbr_cts.Synth.result ->
  Mbr_place.Placement.t ->
  report
(** One-shot: {!update} on fresh states, with a fresh routing estimate
    and, unless [?cts] passes a tree already synthesized for the same
    placement, a fresh CTS run on the current sinks. *)
