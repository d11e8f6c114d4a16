(** The Table 1 measurement bundle: one snapshot of a placed design,
    collected identically before and after composition so the Save
    percentages are apples-to-apples. *)

type t = {
  cells : int;  (** live cells *)
  area : float;  (** µm², cell area + clock-tree buffer area *)
  clk_wl : float;  (** clock-tree wirelength, µm *)
  other_wl : float;  (** signal (star) wirelength, µm *)
  total_regs : int;
  comp_regs : int;  (** composable under {!Compat.is_composable} *)
  clk_bufs : int;
  clk_cap : float;  (** fF: sinks + clock wire + buffers *)
  clk_power : float;  (** µW at the design's clock period (see {!Power}) *)
  clk_power_frac : float;  (** clock share of dynamic power (§1: 20–40 %) *)
  tns : float;  (** ps, <= 0, worst-corner *)
  wns : float;  (** ps, worst-corner *)
  failing : int;
  endpoints : int;
  ovfl : int;  (** overflow edges *)
  utilization : float;
  corners : (string * float * float) list;
      (** per-corner [(name, wns, tns)], in the engine's corner-set
          order; a single ["typical"] entry for single-corner runs *)
}

val collect :
  ?route_config:Mbr_route.Estimator.config ->
  Mbr_sta.Engine.t ->
  Mbr_liberty.Library.t ->
  t
(** Runs STA (with whatever useful skew the engine carries), CTS and
    the congestion estimate on the engine's placement. One CTS run and
    one routing sweep serve the whole snapshot: {!Power.estimate} reuses
    both (the tree's capacitance, the sweep's per-net HPWL) instead of
    recomputing them. The three sub-passes run under the trace spans
    ["metrics.cts"], ["metrics.route"] and ["metrics.power"], nested in
    whichever Fig. 4 stage (["metrics-before"] / ["metrics-after"])
    called the snapshot. *)

val pp_row : Format.formatter -> t -> unit
(** One-line human-readable summary. *)
