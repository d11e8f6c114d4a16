(** The experiment harness behind `bench/main.exe` and `bin/mbrc`:
    regenerates every table and figure of the paper's evaluation (§5)
    on the synthetic D1–D5 designs. See DESIGN.md §4 for the experiment
    index and EXPERIMENTS.md for recorded paper-vs-measured results. *)

type design_run = {
  profile : Mbr_designgen.Profile.t;
  result : Mbr_core.Flow.result;
  hist_before : (int * int) list;  (** Fig. 5 "before" (bits, count) *)
  hist_after : (int * int) list;
  metrics : Mbr_obs.Metrics.snapshot;
      (** telemetry registry snapshot taken right after the flow ran —
          all zeros unless the caller enabled {!Mbr_obs.Metrics}
          (`bench/main` does, resetting per run) *)
}

val run_profile :
  ?options:Mbr_core.Flow.options ->
  ?jobs:int ->
  Mbr_designgen.Profile.t ->
  design_run
(** Generate the design and run the full Fig. 4 flow. [jobs] (worker
    domains for the allocate stage) overrides [options.jobs]
    when given; the result is identical at any value (see
    {!Mbr_core.Allocate}). *)

val table1 : design_run list -> string
(** The paper's Table 1: Base / Ours / Save rows per design. *)

val table1_summary : design_run list -> string
(** The §5 headline averages (register count, clock cap, buffers, ...)
    next to the paper's reported numbers. *)

val fig5 : design_run list -> string
(** MBR bit-width breakdown before/after per design. *)

type fig6_row = {
  name : string;
  base_regs : int;
  ilp_regs : int;
  heuristic_regs : int;
}

val fig6 : ?jobs:int -> Mbr_designgen.Profile.t list -> fig6_row list * string
(** Runs each profile twice (ILP vs the greedy allocator on the same
    weighted candidates) and renders the normalized comparison. *)

val ablation_partition_bound :
  ?jobs:int -> Mbr_designgen.Profile.t -> int list -> string
(** §3's partition-bound discussion: QoR and runtime for each bound. *)

val ablation_weights : ?jobs:int -> Mbr_designgen.Profile.t -> string
(** §3.2's weighting: with the placement-aware weights vs without
    (every merge weighted 1/bits), reporting blocked-hull merges and
    congestion alongside register count. *)

val ablation_incomplete : ?jobs:int -> Mbr_designgen.Profile.t -> string
(** Incomplete MBRs off/on (§3, §5's 5 % rule). *)

val ablation_skew : ?jobs:int -> Mbr_designgen.Profile.t -> string
(** Useful skew off/on after composition (Fig. 4). *)

val ablation_global_entry : ?jobs:int -> Mbr_designgen.Profile.t -> string
(** The conclusion's claim that composition "can be applied
    incrementally both after global and detailed placement": the same
    design composed from a legalized snapshot and from a jittered
    global-placement snapshot. *)

val ablation_decompose : ?jobs:int -> Mbr_designgen.Profile.t -> string
(** The paper's §5 future work, implemented: decompose max-width MBRs
    before composition and recompose. Most interesting on the
    8-bit-rich D4, where the paper says plain composition helps
    least. *)

(** {1 The recovery scenario}

    The compose ↔ decompose recovery loop under a widened corner set,
    shared by `bench/main`'s section 8 and `tools/recover_smoke`. The
    flat profile composes under the typical corner, every composed bank
    is then misplaced to the die corner farthest from where the flow
    put it, sign-off widens the corner set to {!recovery_corners}, and
    the session recomposes with a recovery budget. *)

val recovery_profile : Mbr_designgen.Profile.t
(** [flat ~seed:3]. *)

val recovery_corners : Mbr_sta.Corner.t array
(** typical plus a cell-derated stress corner
    (["typical,stress:2.0:2.0:1.2"]). *)

val recovery_probe : unit -> float * float
(** The un-composed design's worst-corner WNS under
    {!recovery_corners}, and its calibrated clock period (ps). *)

type recovery_run = {
  first : Mbr_core.Flow.result;  (** the compose under typical *)
  recovered : Mbr_core.Flow.result;  (** the recompose after the drift *)
  wall_s : float;  (** the recompose's wall time *)
  mean_drift_um : float;  (** Manhattan displacement per composed bank *)
}

val recovery_run : widen:bool -> period:float -> recover:int -> recovery_run
(** One run of the scenario at the given clock period, with useful skew
    bounded at 5 ps; [widen:false] keeps the corner set at typical
    through the same drift (the control). *)
