(** Useful-skew assignment (Fishburn-style, iterative).

    Shifting a register's clock later by δ adds δ of slack to the
    paths ending at its D pins and removes δ from the paths launched
    from its Q pins. With s_D the worst D-pin slack and s_Q the worst
    Q-pin (downstream) slack, the per-register optimum balances the two:
    δ* = (s_Q − s_D) / 2, clamped to the skew bound.
    Registers interact through shared paths, so the balancing is
    applied with damping (0.6 of the step per sweep) and iterated to a
    fixed point, for at most 8 sweeps (the paper's
    Fig. 4 applies useful skew right after composition, which is why
    composition only merges registers with {e similar} D/Q slacks:
    a single δ must fit all merged bits). *)

type config = {
  bound : float;  (** |skew| limit, ps (default 120) *)
}

val default_config : config

type report = {
  wns_before : float;
  wns_after : float;
  tns_before : float;
  tns_after : float;
  max_abs_skew : float;
  sweeps_run : int;
}

val optimize :
  ?config:config ->
  ?full_sweep:bool ->
  ?cancel:Mbr_util.Cancel.t ->
  Engine.t ->
  report
(** Assign per-register skews on the engine (visible via
    {!Engine.skew}) and re-analyze. Never returns a solution worse than
    the zero-skew start: the final sweep keeps the best-TNS
    assignment encountered.

    By default each sweep steps only the registers with a negative
    connected-side slack, read off cached D/Q slacks that are refreshed
    from the registers {!Engine.update_skews_touched} reports after
    each move batch: [step] returns 0 for every other register and the
    sweep is Jacobi (deltas all read under the pre-sweep assignment),
    so the move set (and hence the result, bit for bit) is identical to
    examining every register in any order. [~full_sweep:true] forces
    the whole-design sweep; it exists as the reference implementation
    for the equivalence property test and for diagnostics. The register
    index comes from {!Engine.register_index} — no per-call hashing.

    [cancel] is polled once per sweep before any move is read, and
    every 4,096 pins by the scans inside {!Engine.update_skews_touched}
    (which always completes its batch — see its doc): a tripped token
    ends the optimization at the next sweep boundary exactly as
    convergence does, restoring the best complete assignment seen so
    far — never a half-applied sweep. The never-worse-than-zero-skew
    guarantee above holds for cancelled runs too. *)
