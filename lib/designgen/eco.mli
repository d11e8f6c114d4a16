(** Seeded random ECO perturbations over a generated design — the
    workload the incremental {!Mbr_core.Flow.Session} is measured
    against.

    One {!perturb} call applies a batch of the edits a real engineering
    change order is made of, all through the public design/placement
    APIs so the design's edit log and the placement's net stamps
    record every one of them:

    - {b moves}: a fraction of the placed registers is jittered by a
      clamped Gaussian (incremental-placement drift);
    - {b retypes}: registers swapped for pin-compatible same-width
      siblings (sizing fixes);
    - {b removals}: registers deleted outright (logic pruned; the
      flow's scan-restitch stage repairs any chain this breaks);
    - {b additions}: fresh single-bit registers of an existing class on
      an existing clock net, with unconnected D/Q (new state whose data
      cones arrive in a later ECO).

    Everything is driven by the caller's {!Mbr_util.Rng}, and every
    choice (names included) is a deterministic function of (rng state,
    design state) — so applying identically-seeded perturbations to two
    identical design copies keeps them in lockstep. That is what lets
    the equivalence property compare [Session.recompose] on one copy
    against a from-scratch [Flow.run] on the other, round after
    round. *)

type config = {
  move_frac : float;  (** fraction of placed registers jittered *)
  move_sigma : float;  (** Gaussian stddev of the jitter, µm *)
  retype_frac : float;  (** fraction of registers retyped *)
  remove_frac : float;  (** fraction of registers removed *)
  add_frac : float;  (** new registers per existing register *)
}

val default_config : config
(** The benchmark "10 % perturbation" ECO: 10 % of registers move by a
    6 µm Gaussian, 2 % are retyped, 1 % removed, 1 % added. *)

type stats = { moved : int; retyped : int; removed : int; added : int }

val total : stats -> int

val perturb : ?config:config -> Mbr_util.Rng.t -> Generate.t -> stats
(** Apply one perturbation batch to the design/placement in place. *)
