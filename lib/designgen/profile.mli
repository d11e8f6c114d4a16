(** Knobs of the synthetic-design generator and the five profiles
    calibrated to the paper's Table 1 "Base" rows (at ~1/20 scale; see
    DESIGN.md §2 for the substitution argument).

    The distributions that matter to MBR composition are reproduced per
    design: total register count, composable fraction, initial MBR
    bit-width mix (Fig. 5 "before"), spatial clustering of register
    banks, clock gating domains, scan partitions/order constraints, and
    a slack profile with roughly the paper's ~38 % failing endpoints. *)

type t = {
  name : string;
  n_registers : int;  (** register cells (an n-bit MBR counts once) *)
  composable_frac : float;
      (** fraction not fixed/size-only (Table 1 Comp-Regs / Total-Regs) *)
  width_mix : (int * float) list;
      (** initial bit width -> fraction of register cells *)
  gates_per_reg : float;  (** combinational cells per register *)
  n_gated_domains : int;  (** ICG-gated clock subdomains *)
  ungated_frac : float;  (** registers on the raw clock root *)
  n_scan_partitions : int;
  ordered_scan_frac : float;
      (** fraction of scannable registers inside ordered scan sections *)
  scan_class_frac : float;  (** fraction of registers that are scan flops *)
  latch_frac : float;  (** fraction of registers that are latches (class dlat) *)
  cluster_size_mean : int;  (** registers per placement cluster *)
  target_util : float;  (** placement utilization *)
  failing_frac : float;  (** calibrated fraction of failing endpoints *)
  cross_cluster_frac : float;  (** cones sourced from far-away clusters *)
  flat : bool;
      (** aggregation-hostile generation: clusters mix register
          classes/clocks freely (no module-name-style correlation) and
          bit ordering is randomized — see {!flat} *)
  corner_spread : float;
      (** derate-profile knob: 0 means single typical corner; s > 0
          adds a "derated" corner via {!Mbr_sta.Corner.spread_set} *)
  seed : int;
}

val d1 : t

val d2 : t

val d3 : t
(** D3's published row is similar to D5 but with congestion pressure:
    denser placement. *)

val d4 : t
(** Rich in 8-bit MBRs already (Fig. 5): composition finds less. *)

val d5 : t

val all : t list
(** \[d1; d2; d3; d4; d5\]. *)

val tiny : seed:int -> t
(** A fast small profile for tests and the quickstart example. *)

val flat : seed:int -> t
(** An aggregation-hostile flat netlist: [flat = true], so placement
    clusters mix register classes, clocks and enables with no
    correlation, and per-register bit order is shuffled. Composition
    quality on this family measures how much the flow relies on
    netlist-name structure versus placement and timing. *)

val scaled : t -> float -> t
(** [scaled p f] multiplies the register count by [f] (for quick runs:
    [scaled d1 0.25]). *)

val names : string list
(** The names {!of_name} resolves: ["d1"]..["d5"], ["tiny"], ["flat"]. *)

val of_name : ?seed:int -> string -> t option
(** The profile a frontend names, [None] for any other name. D1–D5
    keep their shipped seed unless [seed] is given; tiny and flat use
    [seed], 1 by default. The one resolver behind [mbrc -p] and the
    daemon's [load]. *)
