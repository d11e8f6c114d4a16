(* Origin of the reporter's timestamps: set by [setup], so every line
   shows seconds since the frontend initialized logging — the same
   monotonic clock the tracer stamps events with, which is what makes
   a stderr line and a trace span correlatable. *)
let t0 = Atomic.make 0.0

let reporter () =
  let app = Fmt.stderr in
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header ?tags:_ fmt ->
    Format.kfprintf k app
      ("[%8.3f d%d] %a [%s] @[" ^^ fmt ^^ "@]@.")
      (Clock.now_s () -. Atomic.get t0)
      ((Domain.self () :> int))
      Logs_fmt.pp_header (level, header) (Logs.Src.name src)
  in
  { Logs.report }

let setup ?(level = Some Logs.Warning) () =
  Atomic.set t0 (Clock.now_s ());
  Logs.set_reporter (reporter ());
  Logs.set_level level

let level_of_string s =
  match String.lowercase_ascii s with
  | "quiet" | "none" | "off" -> Ok None
  | s -> Logs.level_of_string s
