(** Graph-based static timing analysis over a placed design.

    Model (the paper's linear approximation, §4.1): cell delay =
    intrinsic + drive resistance × load capacitance; wire delay to a
    sink at Manhattan distance L is r·L·(c·L/2 + C_sink) (Elmore on a
    lumped stick); net load is the sum of sink pin caps plus HPWL wire
    cap. Clocks are ideal with an optional per-register useful-skew
    offset; scan pins carry no timing. Endpoints are register D pins
    (setup checks against the capturing register's skewed clock) and
    output ports.

    The propagation plan is the graph: per-pin rows of arcs (each pin's
    incoming and outgoing arcs) with each arc's per-corner derated delay
    alongside, and the only place the engine stores arcs. Whoever needs
    a pin's incoming arcs afresh derives them from the design: a comb
    output's come from its cell's inputs, any other input pin's single
    arc from its net's driver. The plan is also the only record of
    which pins are startpoints and endpoints: its start/endpoint table,
    indexed by pin, with each launch base and setup term, and the lists
    of start and endpoints in ascending pin order.

    The engine is incremental: it remembers the design revision it has
    absorbed and, per net, the {!Mbr_place.Placement.net_stamp} it last
    saw, and {!refresh} brings both up to date: the design's edit log
    names cells added, removed and retyped and every rewired pin, and
    the nets whose stamps moved are the nets whose pins, pin locations
    or pin caps changed. It reads the arcs each rewired pin had off the
    plan, lists every pin it touches once, repairs the topological
    order in place, rewrites in place the plan rows of the listed pins
    (their arcs, start/endpoint status, launch base and setup term) and
    re-propagates arrivals/requireds from them only, stopping where
    values converge. So a refresh costs what its batch touched, plus
    one stream of the topological order per scan direction: no array
    sized by the pin count is allocated or copied, except when one
    outgrows its capacity (per-pin state grows by doubling) or is
    compacted. {!analyze} remains the full-propagation fallback and is
    what {!refresh} degrades to (via an internal rebuild) when an edit
    batch is structural in a way local repair cannot express or touches
    more of the graph than recomputing it would cost.

    Every numeric propagation — {!analyze}, {!refresh}'s repair and
    every {!update_skews} batch — is one shape: a mark-skip scan per
    direction over the plan. A scan streams the topological order and
    recomputes a pin only when it is a seed or a neighbour it reads
    actually moved.

    The engine is corner-indexed: it carries a set of {!Corner.t}
    derate factors and maintains one flat [Bigarray] float64
    arrival/required plane per corner over the single shared graph —
    every scan walks each arc once and relaxes all corners against the
    plan's per-corner delays, reading and writing unboxed doubles.
    Plain accessors ({!slack}, {!wns_tns}, {!reg_d_slack}, ...) report
    worst-corner values (worst slack = min over per-corner slacks), and
    they are what the composition flow reads; use {!corner_slack} /
    {!per_corner_wns_tns} to see individual corners. A
    single-[Corner.typical] engine (the default) is bit-identical to
    the historical single-corner engine: unit derates multiply by
    exactly 1.0. *)

type config = {
  clock_period : float;  (** ps *)
  wire_res : float;  (** kΩ per µm *)
  wire_cap : float;  (** fF per µm *)
  input_delay : float;  (** arrival of primary inputs, ps *)
  output_delay : float;  (** margin required at primary outputs, ps *)
}

val default_config : config

type t

exception Combinational_cycle of Mbr_netlist.Types.pin_id list
(** Raised by {!build} (and by the internal rebuild a {!refresh},
    {!analyze} or {!set_corners} may run) when the data graph is
    cyclic. The payload is a witness pin path in data-flow order,
    closed by repeating the entry pin: [[p0; p1; ...; p0]]. Render it
    with {!cycle_to_string}; a [Printexc] printer is registered for
    raw backtraces. After a rebuild raised it, every later refresh,
    skew update and timing query retries the rebuild, and raises again
    while the cycle stands, rather than read a half-built graph. *)

val cycle_to_string :
  Mbr_netlist.Design.t -> Mbr_netlist.Types.pin_id list -> string
(** Formats a {!Combinational_cycle} witness as
    ["cell/PIN -> cell/PIN -> ..."] using the design's cell names. *)

val build : ?config:config -> ?corners:Corner.t array -> Mbr_place.Placement.t -> t
(** Constructs the timing graph and runs {!analyze} on it, so the
    engine it returns is analyzed. [corners] defaults to
    [Corner.default] (the single typical corner); the array is copied.
    Raises {!Combinational_cycle} on a combinational cycle and
    [Invalid_argument] on an empty corner set. *)

val config : t -> config

val placement : t -> Mbr_place.Placement.t

val corners : t -> Corner.t array
(** The active corner set. Do not mutate the returned array. *)

val n_corners : t -> int

val set_corners : t -> Corner.t array -> unit
(** Swap the active corner set (copied) and run {!analyze} under it
    before returning: per-corner state is reallocated and the plan
    built afresh; the skews are kept. Raises [Invalid_argument] on an
    empty set. *)

val set_skew : t -> Mbr_netlist.Types.cell_id -> float -> unit
(** Record a useful-skew offset of a register's clock arrival (ps;
    positive = later). Only the offset is written: timing reflects it
    after the next {!analyze}. {!update_skews} applies offsets
    incrementally instead. *)

val skew : t -> Mbr_netlist.Types.cell_id -> float

val skew_assignments : t -> (Mbr_netlist.Types.cell_id * float) list
(** All registers currently carrying a nonzero useful-skew offset,
    sorted by cell id. An ECO session uses this to zero the engine back
    to the neutral clock tree before re-running skew optimization, so a
    [recompose] sees exactly what a from-scratch run would. *)

val analyze : t -> unit
(** Full arrival/required propagation: every delay is recomputed
    against the current placement and every pin's timing from scratch.
    When the design has changed since the graph was last built or
    refreshed, the graph is first rebuilt from the design (counted by
    {!full_builds}), so an analysis never reads connectivity the graph
    has not seen. After netlist surgery, {!refresh} absorbs the same
    edits incrementally. *)

val refresh : t -> unit
(** Bring the analysis up to date with everything that changed on the
    design and placement since the engine last looked: cells added,
    removed or retyped and pins rewired (the design's edit log), and
    the nets whose {!Mbr_place.Placement.net_stamp} moved (moves,
    unplacements, retypes and rewires all move them); when neither the
    design's nor the placement's revision moved since, it does nothing.
    Each rewired pin's old net arcs are read off the plan (a driver's
    outgoing arcs, a sink's incoming one) and their in-graph ends
    marked, as is the pin itself; every dirty net's sinks and driver
    are marked, and a driver's comb inputs seeded (its load changed the
    cell delays in their rows, which the driver's patch rewrites). New
    register/port pins go in place into the topological order, sources
    in front and sinks behind (the order keeps slack at both ends; a
    removed pin stays as a tombstone until tombstones outnumber the
    live pins and the order is laid out afresh). The list of marked and
    seeded pins is the refresh's only bookkeeping: the propagation plan
    is patched at the marked pins (arcs, start/endpoint status, launch
    base and setup term — see {!update_skews}), and both directions are
    re-propagated from the listed pins still in the graph, stopping as
    soon as values stop changing. A pin recomputed from unchanged
    inputs keeps its bits, so seeding both directions costs work, never
    a value. Produces bit-identical results to a fresh {!build}
    (property-tested, raw rewiring of surviving pins included). Each
    engine keeps its own record of the stamps it has seen, so any
    number of engines can read one placement.

    Falls back to a full rebuild — counted by {!full_builds} — when a
    combinational cell was added, when a new arc contradicts the
    existing topological order, or when the touched-pin estimate
    exceeds 0.6 of the graph's pin count (every pin id the design had
    handed out by the engine's previous build or refresh). The estimate
    adds up every pin of each dirty net (clock, reset and scan-enable
    nets included, so one register joining or leaving such a net brings
    in its whole pin list), the pins of every added, removed and retyped
    cell, and the number of placement revisions since the previous
    refresh. A removed combinational cell stays on the incremental
    path: a subgraph of a DAG keeps its topological order. A
    composition-scale batch can cross the threshold: after a merge pass
    on D1, D2, D3 or D5 at scale 0.4, the refresh inside the skew stage
    rebuilds (D4 stays incremental).

    Telemetry (no-op unless [Mbr_obs] is enabled): each non-trivial
    call runs under an ["sta.refresh"] trace span, whose end event
    carries a [dirty_pins] arg when the refresh stayed incremental (its
    scans' seeds); the registry counters [sta.refreshes],
    [sta.rebuild_fallbacks] and [sta.dirty_pins] record how often the
    incremental path held and how many pins the refreshes listed. *)

val full_builds : t -> int
(** Full graph constructions so far: 1 for {!build} plus one per
    internal rebuild, whether a {!refresh} fell back to it or an
    {!analyze} found netlist edits pending. *)

val refreshes : t -> int
(** Refreshes that took the incremental path. *)

val plan_builds : t -> int
(** Propagation plans built from scratch so far (see {!update_skews}
    for the plan's lifecycle): one per {!analyze}, which {!build},
    {!set_corners} and a fallback rebuild run. Registry counter
    [sta.plan.builds]; each build runs under a ["sta.plan.build"]
    span. *)

val plan_patches : t -> int
(** Propagation plans patched so far: one per incremental {!refresh},
    at the pins its splice touched. Registry counter
    [sta.plan.patches]; each patch runs under a ["sta.plan.patch"]
    span, whose end event carries a [rows] arg: the pred, succ and
    start/endpoint rows the patch wrote, also summed by the registry
    counter [sta.plan.rows_patched]. *)

val update_skews :
  ?cancel:Mbr_util.Cancel.t ->
  t ->
  (Mbr_netlist.Types.cell_id * float) list ->
  unit
(** Incremental re-timing after changing only clock skews: applies the
    assignments, seeds the changed registers' Q pins forward and their
    D pins backward, and runs one mark-skip scan per direction over the
    shared propagation plan: each streams the whole topological order
    and recomputes only seeded pins and pins a moved neighbour reaches,
    so a batch costs a sequential pass plus its cones. Arc delays come
    from the plan, so placement and netlist must be unchanged since the
    last {!refresh} or {!analyze}. Produces bit-identical slacks to
    {!analyze} (property-tested).

    The propagation plan (per-pin rows of arcs with per-corner arc
    delays, and per-start/endpoint launch and setup terms) lives across
    calls, and whenever one is present it is current. Each {!analyze}
    builds it from scratch ({!plan_builds}), and so do {!build} and
    {!set_corners}. {!refresh} never rebuilds it: before it
    propagates, it patches the pins its splice marked, pins that left
    or joined the graph included, re-deriving their arcs and
    start/endpoint status from the design and rewriting their rows in
    place ({!plan_patches}); every other row stays where it lies. A
    pin's incoming-arc row has a capacity fixed when the pin joins (its
    cell's input count for a comb output, 1 for a net sink), so it is
    rewritten where it lies. An outgoing-arc row is edited where the
    patched pins' sources changed, kept in ascending destination order;
    one that outgrows its capacity moves to the end of its array, and
    the array is compacted once its dead entries outnumber its live
    ones. So this call, and the metrics that follow a refresh, reuse
    the plan as it is. Patched and fresh plans give bit-identical
    slacks, endpoint sets and WNS/TNS (property-tested).

    [cancel] is polled every 4,096 pins by the scans, so a deadline or
    check budget trips promptly, but a batch is atomic — the scans
    always complete, leaving exactly the planes an uncancelled call
    would. Callers act on the tripped token at their own step boundary
    (see {!Skew.optimize}).

    Telemetry: [sta.skew.frontier_pins] accumulates the pins the scans
    recomputed, and [sta.skew.level_passes] the scan passes run (2 per
    batch, one per direction). *)

val update_skews_touched :
  ?cancel:Mbr_util.Cancel.t ->
  t ->
  (Mbr_netlist.Types.cell_id * float) list ->
  Mbr_netlist.Types.cell_id list
(** {!update_skews} that also reports the registers owning a D or Q pin
    whose arrival or required actually changed, sorted by cell id — a
    superset of every register whose {!reg_d_slack} or {!reg_q_slack}
    differs from before the call (a D slack only moves with the D pin's
    arrival or required; likewise Q). A changed D or Q pin is always a
    connected one, i.e. an endpoint or a startpoint, so its register is
    read off the plan's endpoint/startpoint tables. Any register
    outside the returned
    set is guaranteed unchanged, which is what lets the worklist-driven
    skew optimizer skip it. *)

val register_index :
  t -> Mbr_netlist.Types.cell_id array * int array
(** The design's registers, packed: [(regs, slot)] where [regs] lists
    every register in [Design.registers] order and [slot] maps a cell
    id to its index in [regs] (-1 for non-registers). Cached per design
    revision, so repeated calls (one per skew sweep, say) cost a
    revision check. Callers must not mutate either array. *)

val arrival : t -> Mbr_netlist.Types.pin_id -> float option
(** Worst-corner (latest) arrival; [None] for pins outside the data
    graph or unreached. *)

val required : t -> Mbr_netlist.Types.pin_id -> float option
(** Worst-corner (earliest) required time. *)

val slack : t -> Mbr_netlist.Types.pin_id -> float option
(** Worst-corner slack: the min over corners of that corner's
    [required - arrival] (not the naive pairing of worst arrival with
    worst required). *)

val corner_slack : t -> int -> Mbr_netlist.Types.pin_id -> float option
(** Slack under one corner, by index into {!corners}. Raises
    [Invalid_argument] on an out-of-range corner index. *)

val corner_arrival : t -> int -> Mbr_netlist.Types.pin_id -> float option
(** Arrival under one corner, by index into {!corners}; [None] for
    pins outside the data graph or unreached. Raises
    [Invalid_argument] on an out-of-range corner index. *)

val corner_required : t -> int -> Mbr_netlist.Types.pin_id -> float option
(** Required time under one corner, like {!corner_arrival}. *)

val wns : t -> float
(** Worst-corner worst endpoint slack (+inf when there are no
    endpoints). *)

val tns : t -> float
(** Total negative worst-corner slack (sum of negative endpoint
    slacks, <= 0). *)

val wns_tns : t -> float * float
(** [(wns, tns)] from a single endpoint sweep. *)

val corner_wns_tns : t -> int -> float * float
(** [(wns, tns)] under one corner, by index into {!corners}. *)

val per_corner_wns_tns : t -> (string * float * float) list
(** [(corner name, wns, tns)] for every active corner, in corner-set
    order. *)

val failing_endpoints : t -> int

val n_endpoints : t -> int

val endpoint_slacks : t -> (Mbr_netlist.Types.pin_id * float) list
(** Every reached endpoint with its worst-corner slack, in ascending
    pin order. *)

val reg_d_slack : t -> Mbr_netlist.Types.cell_id -> float
(** Worst slack over the register's connected D pins (+inf when all are
    unconnected). Raises [Invalid_argument] for non-registers. *)

val output_load : t -> Mbr_netlist.Types.pin_id -> float
(** Capacitive load seen by an output pin (sink pins + wire), fF; 0
    when unconnected. Used by MBR sizing to bound delay changes. *)

val reg_q_slack : t -> Mbr_netlist.Types.cell_id -> float
(** Worst slack over the register's connected Q pins — the backward-
    propagated required minus arrival, i.e. the tightest downstream
    endpoint seen from this register. *)
