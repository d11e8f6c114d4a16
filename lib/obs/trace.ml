type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  ev_name : string;
  ev_ph : char;  (* 'B' | 'E' | 'i' *)
  ev_ts_us : float;
  ev_tid : int;
  ev_args : (string * arg) list;
}

let enabled = Atomic.make false

let enable () = Atomic.set enabled true

let disable () = Atomic.set enabled false

let is_enabled () = Atomic.get enabled

(* Each domain records into a bounded ring (constant-time push, no
   synchronization: only the owning domain writes). When a ring is
   full the oldest event is overwritten and [trace.dropped] bumped —
   a long-lived traced daemon keeps the newest [capacity] events per
   domain instead of growing without limit. The registry of rings is
   the module's only shared mutable structure; its mutex is taken once
   per domain lifetime plus once per export/clear/resize. Rings of
   finished pool domains stay registered so their events survive into
   the export. *)

let default_capacity = 65536

let capacity = Atomic.make default_capacity

(* The metrics counter makes drops visible in every snapshot; the
   atomic keeps the count observable when metrics are disabled. *)
let m_dropped = Metrics.counter "trace.dropped"

let dropped = Atomic.make 0

let dropped_events () = Atomic.get dropped

type buf = {
  b_tid : int;
  mutable b_arr : event array;
  mutable b_start : int;  (* index of the oldest event *)
  mutable b_len : int;
}

let dummy =
  { ev_name = ""; ev_ph = 'i'; ev_ts_us = 0.0; ev_tid = 0; ev_args = [] }

let reg_mutex = Mutex.create ()

let buffers : buf list ref = ref []

let dls : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_arr = Array.make (max 1 (Atomic.get capacity)) dummy;
          b_start = 0;
          b_len = 0;
        }
      in
      Mutex.lock reg_mutex;
      buffers := b :: !buffers;
      Mutex.unlock reg_mutex;
      b)

let buf_events b =
  let cap = Array.length b.b_arr in
  List.init b.b_len (fun i -> b.b_arr.((b.b_start + i) mod cap))

let set_capacity n =
  let n = max 1 n in
  Atomic.set capacity n;
  (* resize existing rings, keeping the newest events; like [export],
     only safe while the owning domains are quiescent *)
  Mutex.lock reg_mutex;
  List.iter
    (fun b ->
      if Array.length b.b_arr <> n then begin
        let evs = buf_events b in
        let keep = List.filteri (fun i _ -> i >= List.length evs - n) evs in
        let arr = Array.make n dummy in
        List.iteri (fun i e -> arr.(i) <- e) keep;
        b.b_arr <- arr;
        b.b_start <- 0;
        b.b_len <- List.length keep
      end)
    !buffers;
  Mutex.unlock reg_mutex

let get_capacity () = Atomic.get capacity

let emit ~ts name ph args =
  let b = Domain.DLS.get dls in
  let ev =
    { ev_name = name; ev_ph = ph; ev_ts_us = ts; ev_tid = b.b_tid;
      ev_args = args }
  in
  let cap = Array.length b.b_arr in
  if b.b_len = cap then begin
    (* full: the new event takes the oldest slot *)
    b.b_arr.(b.b_start) <- ev;
    b.b_start <- (b.b_start + 1) mod cap;
    Atomic.incr dropped;
    Metrics.incr m_dropped
  end
  else begin
    b.b_arr.((b.b_start + b.b_len) mod cap) <- ev;
    b.b_len <- b.b_len + 1
  end

let clear () =
  Mutex.lock reg_mutex;
  List.iter
    (fun b ->
      Array.fill b.b_arr 0 (Array.length b.b_arr) dummy;
      b.b_start <- 0;
      b.b_len <- 0)
    !buffers;
  Mutex.unlock reg_mutex

(* [end_args] gives the end event's args from the thunk's result; an
   exception closes the span without them *)
let span ~args ~name ~end_args f =
  (* capture the flag once so the B/E pair stays matched even if
     tracing is toggled mid-span *)
  let on = Atomic.get enabled in
  let t0 = Clock.now_us () in
  if on then emit ~ts:t0 name 'B' args;
  let finish eargs =
    let t1 = Clock.now_us () in
    if on then emit ~ts:t1 name 'E' eargs;
    (t1 -. t0) *. 1e-6
  in
  match f () with
  | r -> (r, finish (if on then end_args r else []))
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (finish []);
    Printexc.raise_with_backtrace e bt

let timed_span ?(args = []) ~name f = span ~args ~name ~end_args:(fun _ -> []) f

let with_span ?args ~name f =
  if Atomic.get enabled then fst (timed_span ?args ~name f) else f ()

let with_span_result ?(args = []) ~name ~result_args f =
  if Atomic.get enabled then fst (span ~args ~name ~end_args:result_args f)
  else f ()

let instant ?(args = []) name =
  if Atomic.get enabled then emit ~ts:(Clock.now_us ()) name 'i' args

let events () =
  Mutex.lock reg_mutex;
  let chunks = List.map buf_events !buffers in
  Mutex.unlock reg_mutex;
  (* per-ring lists are chronological; the stable sort keeps
     same-timestamp events of one domain in recording order *)
  List.stable_sort
    (fun a b -> compare a.ev_ts_us b.ev_ts_us)
    (List.concat chunks)

let n_events () = List.length (events ())

let arg_json = function
  | Str s -> Json.Str s
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Bool b -> Json.Bool b

let export () =
  let pid = float_of_int (Unix.getpid ()) in
  let event_json e =
    Json.Obj
      ([
         ("name", Json.Str e.ev_name);
         ("ph", Json.Str (String.make 1 e.ev_ph));
         ("ts", Json.Num e.ev_ts_us);
         ("pid", Json.Num pid);
         ("tid", Json.Num (float_of_int e.ev_tid));
         ("cat", Json.Str "mbr");
       ]
      @
      match e.ev_args with
      | [] -> []
      | args ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event_json (events ())));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write path =
  let oc = open_out path in
  output_string oc (Json.to_string (export ()));
  output_char oc '\n';
  close_out oc
