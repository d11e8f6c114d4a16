(** Span tracing with Chrome [trace_event] export.

    [with_span ~name f] brackets [f] with begin/end events carrying the
    calling domain's id, so a traced run renders as a flame chart of
    the Fig.-4 stages over the allocation pool's worker domains in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    Recording is {e per-domain and lock-free}: each domain appends to
    its own buffer (reached through domain-local storage), and the one
    mutex in the module guards only buffer {e registration} (once per
    domain) and export. Tracing is off by default; a disabled
    [with_span] is one atomic load plus the two clock reads that also
    produce the duration callers consume, so hot paths stay clean.

    {b Bounded memory.} Each per-domain buffer is a ring of
    {!get_capacity} events ({!default_capacity} unless
    {!set_capacity} was called): once full, each new event overwrites
    the oldest one in that domain and bumps the [trace.dropped]
    metrics counter (also readable via {!dropped_events} when metrics
    are off). A long-lived traced daemon therefore holds at most
    [capacity × domains] events, and an export shows the newest
    window, still in chronological order.

    Spans may nest freely and cross domains only by nesting (a span
    opened on one domain closes on the same domain — [Fun.protect]
    semantics, so an exception still closes the span). *)

type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

val enable : unit -> unit

val disable : unit -> unit

val is_enabled : unit -> bool

val clear : unit -> unit
(** Drop every recorded event (buffers stay registered; the
    [trace.dropped] count is {e not} reset — it is cumulative like
    every other counter). *)

val default_capacity : int
(** 65536 events per domain (an event is a few words plus its args;
    the default bounds a busy 8-domain daemon to a few tens of MB). *)

val set_capacity : int -> unit
(** Ring size, in events per domain, for rings created after the call
    — and existing rings are resized in place, keeping their newest
    events. Clamped to at least 1. Like {!export}, only safe while
    recording domains are quiescent; call it at setup, before
    tracing. *)

val get_capacity : unit -> int
(** Current per-domain ring size. *)

val dropped_events : unit -> int
(** Events overwritten ring-buffer-style since process start, across
    all domains — same value the [trace.dropped] counter reports, but
    live even when metrics are disabled. *)

val timed_span :
  ?args:(string * arg) list -> name:string -> (unit -> 'a) -> 'a * float
(** Run the thunk inside a span and return its result with the span's
    duration in seconds — the same two clock reads produce the trace
    events and the returned duration, so stage-time tables and the
    trace can never disagree. When tracing is disabled only the
    duration is produced. *)

val with_span : ?args:(string * arg) list -> name:string -> (unit -> 'a) -> 'a
(** [timed_span] without the duration. *)

val with_span_result :
  ?args:(string * arg) list ->
  name:string ->
  result_args:('a -> (string * arg) list) ->
  (unit -> 'a) ->
  'a
(** [with_span] whose end event also carries [result_args r], args
    computed from the thunk's result [r]: a count that is known only
    once the span's work is done. Chrome and Perfetto merge a span's
    begin and end args. [result_args] runs only while tracing; a
    thunk that raises closes the span without them. *)

val instant : ?args:(string * arg) list -> string -> unit
(** A zero-duration marker event ([ph = "i"]). No-op when disabled. *)

val export : unit -> Json.t
(** The Chrome trace: [{"traceEvents": [...], "displayTimeUnit":
    "ms"}], events in timestamp order (ties keep per-domain
    recording order, so a B never trails its E). Safe to call while
    workers are quiescent — i.e. between flow stages or after a run. *)

val write : string -> unit
(** {!export} serialized to a file, loadable by Perfetto as-is. *)

val n_events : unit -> int
