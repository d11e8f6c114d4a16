(** One [Logs] reporter setup for every frontend.

    [bin/mbrc] and [bench/main] previously each had to arrange their
    own reporter (and mostly didn't, silently dropping the library's
    [Logs.warn] messages); both now call {!setup}, and `mbrc` threads a
    [--log-level] flag through its shared argument block. *)

val setup : ?level:Logs.level option -> unit -> unit
(** Install an [Fmt]-based reporter on [stderr] and set the global
    level (default [Some Warning]). [Some Debug] shows everything;
    [None] silences all logging. Idempotent (re-running resets the
    timestamp origin).

    Each line is prefixed with [\[ssss.mmm dN\]] — monotonic seconds
    since [setup] (the tracer's clock, so log lines correlate with
    trace spans) and the emitting domain's id. *)

val level_of_string :
  string -> (Logs.level option, [ `Msg of string ]) result
(** [Logs.level_of_string] plus the spellings ["quiet"], ["none"] and
    ["off"] for [None]; the result type is cmdliner's, so the frontends
    parse [--log-level] with it directly. *)
