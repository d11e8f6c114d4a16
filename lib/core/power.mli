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

val estimate :
  ?config:config ->
  ?cts:Mbr_cts.Synth.result ->
  ?route:Mbr_route.Estimator.result ->
  Mbr_place.Placement.t ->
  report
(** Uses the current placement for wire lengths and the current netlist
    for pin caps and leakage; clock capacitance comes from a CTS run on
    the current sinks. Pass [?cts] to reuse a tree already synthesized
    for the same placement instead of synthesizing a second one, and
    [?route] to reuse a routing estimate of the same placement: each
    signal net's wire cap is [wire_cap] × its HPWL, read from the
    estimate's [net_hpwl] (computed when absent). {!Metrics.collect}
    passes both, so a snapshot runs one CTS and one net sweep. The
    signal-cap loop walks each net's pin list once, for the driver and
    the sinks' input caps together. *)
