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

type state
(** The per-net work of the routing estimate and the power estimate
    ({!Mbr_route.Estimator.t}, {!Power.t}), carried from one snapshot
    of a placement to the next so that a snapshot re-sweeps only the
    nets whose {!Mbr_place.Placement.net_stamp} moved. A
    {!Flow.Session} keeps one for its placement. *)

val create_state :
  ?route_config:Mbr_route.Estimator.config -> Mbr_place.Placement.t -> state
(** A state over the placement that has swept nothing: the first
    {!collect} with it sweeps every net. *)

val collect : state -> Mbr_sta.Engine.t -> Mbr_liberty.Library.t -> t
(** Runs STA (with whatever useful skew the engine carries), CTS and
    the congestion estimate on the engine's placement, bringing the
    state up to date. One CTS run, one routing update and one walk of
    {!Mbr_netlist.Design.registers} serve the whole snapshot:
    {!Power.update} reuses all three (the tree's capacitance, the
    state's per-net HPWL, the register list for leakage). Every field equals, by its
    bits, what a fresh state would give: carrying the state changes
    only how much work a snapshot does. The three sub-passes run under
    the trace spans ["metrics.cts"], ["metrics.route"] (with a ["nets"]
    argument: the nets it re-sweeps) and ["metrics.power"], nested in
    whichever Fig. 4 stage (["metrics-before"] / ["metrics-after"])
    called the snapshot; the ["metrics.nets_swept"] counter adds up
    the re-swept nets. Raises [Invalid_argument] when the engine's
    placement is not the state's. *)

val pp_row : Format.formatter -> t -> unit
(** One-line human-readable summary. *)
