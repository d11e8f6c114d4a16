(** Design-level wirelength and congestion estimation.

    Signal nets are decomposed into a star from the pin median and each
    branch is L-routed onto the grid; wirelength is the star length
    (a tighter estimate than pure HPWL for multi-pin nets, without a
    full Steiner construction). Clock nets are excluded here — their
    wire is owned by the clock tree ({!Mbr_cts}) both in the paper's
    Table 1 ("Wirelength Clk" vs "Other") and in this reproduction.

    Pins come from the placement's per-net cache
    ({!Mbr_place.Placement.net_pin_points}); pin order is the net's. One
    sweep of a net sorts each axis of its pin coordinates once (reused
    buffers, no per-pin allocation), takes the star centre's medians and
    the HPWL's extremes from the same sort, and L-routes every branch in
    integer tile space.

    The estimate is a state ({!t}) carried across passes over one
    placement: it keeps each net's branch lengths, pin tiles, centre
    tile and HPWL, and the grid's demand. {!update} re-sweeps only the
    nets whose {!Mbr_place.Placement.net_stamp} moved since it last saw
    them — first taking their old L-runs off the grid — and re-sums the
    totals; a fresh state sweeps every net. Either way the result is
    the one a fresh state gives, bit for bit: the signal wirelength is
    one running sum over every stored branch in net order, then pin
    order, from 0.0, as a single full sweep adds them; and every edge's
    demand is a multiple of 0.5 far below 2{^53}, so adding a net's
    runs and taking them off again (demand [-1.0]) is exact in any
    order. *)

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
  nets_swept : int;
      (** nets this update re-swept: those whose stamp moved, every net
          on a fresh state *)
}
(** Plain values: a result shares nothing with the state, so a later
    {!update} leaves it as it was. *)

type t
(** Per-net route work and grid demand over one placement. *)

val create : ?config:config -> Mbr_place.Placement.t -> t
(** A state that has swept nothing: its first {!update} sweeps every
    net. *)

val placement : t -> Mbr_place.Placement.t

val update : t -> result
(** Bring the state up to the placement and design as they are now and
    return the estimate, equal by bits to {!estimate} of the same
    placement. Re-sweeps every net whose stamp differs from the one it
    was last swept at (nets added to the design since the last update
    included), reusing a net's storage when its routed pin count did
    not grow, so an ECO pass allocates little. *)

val stale : t -> int
(** Nets the next {!update} would re-sweep, counted without sweeping
    them. *)

val estimate : ?config:config -> Mbr_place.Placement.t -> result
(** [update (create ?config pl)]: one full sweep. *)

val hpwl : t -> Mbr_netlist.Types.net_id -> float
(** Half-perimeter wirelength of the net's placed pins as of the last
    {!update}, µm; 0 for clock nets and nets with fewer than 2 placed
    pins (and nets the state has not swept). What [Mbr_core.Power]
    prices each signal net's wire with. *)

val total_demand : t -> float
(** {!Grid.total_demand} of the state's grid. *)
