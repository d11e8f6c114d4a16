(** Design-level wirelength and congestion estimation.

    Signal nets are decomposed into a star from the pin median and each
    branch is L-routed onto the grid; wirelength is the star length
    (a tighter estimate than pure HPWL for multi-pin nets, without a
    full Steiner construction). Clock nets are excluded here — their
    wire is owned by the clock tree ({!Mbr_cts}) both in the paper's
    Table 1 ("Wirelength Clk" vs "Other") and in this reproduction.

    Pins come from the placement's per-net cache
    ({!Mbr_place.Placement.net_pin_points}), which moves and design
    edits already invalidate, so a pass re-derives nothing the cache
    holds; pin order is the net's. One sweep per net sorts each axis of
    its pin coordinates once (reused buffers, no per-pin allocation),
    takes the star centre's medians and the HPWL's extremes from the
    same sort, and L-routes every branch in integer tile space. *)

type config = {
  gcell : float;  (** tile size, µm (default 10) *)
  cap_h : float;  (** horizontal tracks per edge (default 14) *)
  cap_v : float;  (** vertical tracks per edge (default 12) *)
}

val default_config : config

type result = {
  signal_wl : float;  (** total star wirelength of non-clock nets, µm *)
  overflow_edges : int;
  max_utilization : float;
  n_routed_nets : int;  (** non-clock nets with at least 2 placed pins *)
  net_hpwl : float array;
      (** per net id: {!net_hpwl} of every routed net, 0 for clock nets
          and nets with fewer than 2 placed pins — what
          [Mbr_core.Power.estimate] reads through its [?route] argument
          instead of walking the pins again *)
}

val net_star_wl : Mbr_place.Placement.t -> Mbr_netlist.Types.net_id -> float
(** Star wirelength of one net (0 for fewer than 2 placed pins). *)

val net_hpwl : Mbr_place.Placement.t -> Mbr_netlist.Types.net_id -> float
(** Half-perimeter wirelength of the bounding box of the net's placed
    pins, µm (0 for fewer than 2 placed pins), served from the
    placement's cached net box. *)

val estimate : ?config:config -> Mbr_place.Placement.t -> result
(** One pass over every net: star wirelength, per-net HPWL and grid
    demand. Signal wirelength accumulates in net order and pin order,
    and every edge's demand is a multiple of 0.5, so the result does
    not depend on how the sweep is organised. *)
