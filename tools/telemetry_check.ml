(* telemetry_check — CI validator for the telemetry outputs.
   Usage: telemetry_check TRACE.json METRICS.json
          telemetry_check --prom FILE.prom [REQUIRED_FAMILY...]
          telemetry_check --events EVENTS.log

   Default mode parses both files back with Mbr_obs.Json (the
   independent parser, not the emitter) and checks the properties the
   observability layer promises:

   trace:
     - well-formed Chrome trace_event JSON: {"traceEvents": [...]},
       every event carrying name/ph/ts/pid/tid;
     - B/E stack discipline per tid: every E closes the innermost open
       B of the same name, and no span is left open at the end;
     - a "flow.recompose" span exists;
     - the Fig.-4 stage spans appear in pipeline order;
     - the stage spans cover >= 95 % of their flow.recompose span.

   metrics:
     - well-formed {"counters": {...}, ...} snapshot;
     - the counters a traced flow run must have bumped are present and
       positive (including "sta.corners": every engine build registers
       its corner set);
     - the reduction and recovery-loop counters are present (they are
       0 on runs with nothing to prune or that never decompose);
     - when "flow.recover_rounds" > 0, the trace must carry a
       "flow.recover" span — the loop is required to announce itself.

   --prom validates a Prometheus text-exposition file (what mbrd
   --prom-file and tools/prom_export write): metric and label names
   legal per the 0.0.4 grammar, exactly one # TYPE per family, every
   sample under a declared family, histogram buckets cumulative with a
   +Inf bucket agreeing with _count, and any REQUIRED_FAMILY arguments
   present.

   --events validates a captured progress-event stream (mbrc client
   --progress stderr): every event line well-formed with one shared
   request id, rounds and cumulative block counters non-decreasing,
   stages in Fig.-4 pipeline order within each round, and round 0
   visiting every stage. Non-JSON lines are ignored (stderr carries
   other chatter). *)

module J = Mbr_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse what path =
  match J.of_string (read_file path) with
  | j -> j
  | exception J.Parse_error m -> fail "%s %s: %s" what path m

let stage_order =
  [ "eco-reset"; "metrics-before"; "decompose"; "compat-graph";
    "blocker-index"; "allocate"; "merge"; "scan-restitch"; "skew";
    "resize"; "metrics-after" ]

type ev = { name : string; ph : string; ts : float; tid : int }

let event_of_json j =
  let str k = Option.bind (J.member k j) J.to_str in
  let num k = Option.bind (J.member k j) J.to_float in
  let int k = Option.bind (J.member k j) J.to_int in
  match (str "name", str "ph", num "ts", int "pid", int "tid") with
  | Some name, Some ph, Some ts, Some _, Some tid -> { name; ph; ts; tid }
  | _ -> fail "trace event missing name/ph/ts/pid/tid: %s" (J.to_string j)

let check_trace path =
  let j = parse "trace" path in
  let events =
    match Option.bind (J.member "traceEvents" j) J.to_list with
    | Some l -> List.map event_of_json l
    | None -> fail "trace %s: no \"traceEvents\" array" path
  in
  if events = [] then fail "trace %s: empty" path;
  (* per-tid stack discipline, accumulating span durations on close *)
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let spans = ref [] in (* (name, tid, dur_us) of every closed span *)
  List.iter
    (fun e ->
      let s = stack e.tid in
      match e.ph with
      | "B" -> s := (e.name, e.ts) :: !s
      | "E" -> (
        match !s with
        | (name, ts0) :: rest when name = e.name ->
          s := rest;
          spans := (name, e.tid, e.ts -. ts0) :: !spans
        | (name, _) :: _ ->
          fail "tid %d: E %S closes open span %S" e.tid e.name name
        | [] -> fail "tid %d: E %S with no span open" e.tid e.name)
      | "i" -> ()
      | ph -> fail "unknown phase %S" ph)
    events;
  Hashtbl.iter
    (fun tid s ->
      match !s with
      | [] -> ()
      | (name, _) :: _ -> fail "tid %d: span %S never closed" tid name)
    stacks;
  let spans = !spans in
  let dur name =
    List.fold_left
      (fun acc (n, _, d) -> if n = name then acc +. d else acc)
      0.0 spans
  in
  let recompose_us = dur "flow.recompose" in
  if recompose_us <= 0.0 then fail "no flow.recompose span";
  (* Fig.-4 stage spans in pipeline order *)
  let stage_begins =
    List.filter_map
      (fun e ->
        if e.ph = "B" && List.mem e.name stage_order then Some e.name else None)
      events
  in
  let rec ordered order seen = match (order, seen) with
    | _, [] -> true
    | [], s :: _ -> fail "stage %S after the pipeline ended" s
    | o :: os, s :: ss ->
      if o = s then ordered os ss
      else ordered os (s :: ss) (* stage missing from this round: skip *)
  in
  (* per recompose round the stages restart; check each round's prefix *)
  let rounds =
    List.fold_left
      (fun acc s ->
        match acc with
        | cur :: rest when not (List.mem s cur) -> (s :: cur) :: rest
        | _ -> [ s ] :: acc)
      [] stage_begins
  in
  List.iter (fun round -> ignore (ordered stage_order (List.rev round))) rounds;
  if not (List.exists (fun (n, _, _) -> n = "allocate") spans) then
    fail "no allocate stage span";
  (* coverage: the eleven stage spans account for >= 95 % of recompose *)
  let stage_us =
    List.fold_left (fun acc name -> acc +. dur name) 0.0 stage_order
  in
  let coverage = stage_us /. recompose_us in
  if coverage < 0.95 then
    fail "stage spans cover %.1f %% of flow.recompose (< 95 %%)"
      (100.0 *. coverage);
  Printf.printf
    "trace OK: %d events, %d closed spans, stage coverage %.1f %%\n"
    (List.length events) (List.length spans) (100.0 *. coverage);
  spans

let check_metrics path =
  let j = parse "metrics" path in
  let counters =
    match J.member "counters" j with
    | Some o -> o
    | None -> fail "metrics %s: no \"counters\" object" path
  in
  let counter name =
    match Option.bind (J.member name counters) J.to_int with
    | Some v -> v
    | None -> fail "metrics: counter %S missing" name
  in
  List.iter
    (fun name ->
      if counter name <= 0 then fail "metrics: counter %S is 0" name)
    [ "flow.recomposes"; "ilp.solves"; "ilp.components";
      "lp.simplex_solves"; "lp.simplex_pivots"; "sta.refreshes";
      "sta.corners" ];
  (* the reduction and recovery-loop counters must exist in every
     snapshot (their modules register them at init); they are
     legitimately 0 on designs with nothing to prune or runs that never
     decompose, so presence — via [counter]'s missing check — and
     non-negativity are all we require *)
  List.iter
    (fun name ->
      if counter name < 0 then fail "metrics: counter %S is negative" name)
    [ "ilp.dominated_pruned"; "ilp.fixed_vars"; "flow.recover_rounds";
      "decompose.requested"; "decompose.splits"; "trace.dropped";
      "sta.skew.frontier_pins"; "sta.skew.level_passes" ];
  (match
     Option.bind (J.member "histograms" j) (fun h ->
         Option.bind (J.member "alloc.block_solve_s" h) (fun hs ->
             Option.bind (J.member "count" hs) J.to_int))
   with
  | Some n when n > 0 -> ()
  | Some _ -> fail "metrics: alloc.block_solve_s histogram is empty"
  | None -> fail "metrics: alloc.block_solve_s histogram missing");
  Printf.printf "metrics OK: flow.recomposes=%d ilp.solves=%d pivots=%d\n"
    (counter "flow.recomposes") (counter "ilp.solves")
    (counter "lp.simplex_pivots");
  counter "flow.recover_rounds"

(* ---- --prom: Prometheus text-exposition validation ---- *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

let parse_sample lineno line =
  let n = String.length line in
  let bad m = fail "prom line %d: %s (%s)" lineno m line in
  let i = ref 0 in
  while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do incr i done;
  let name = String.sub line 0 !i in
  if not (Mbr_obs.Prom.is_legal_metric_name name) then
    bad "illegal metric name";
  let labels =
    if !i < n && line.[!i] = '{' then begin
      incr i;
      let acc = ref [] in
      let rec pairs () =
        let k0 = !i in
        while !i < n && line.[!i] <> '=' do incr i done;
        if !i >= n then bad "unterminated label set";
        let k = String.sub line k0 (!i - k0) in
        if not (Mbr_obs.Prom.is_legal_label_name k) then
          bad ("illegal label name " ^ k);
        incr i;
        if !i >= n || line.[!i] <> '"' then bad "label value must be quoted";
        incr i;
        let buf = Buffer.create 16 in
        let rec value () =
          if !i >= n then bad "unterminated label value";
          match line.[!i] with
          | '"' -> incr i
          | '\\' ->
            if !i + 1 >= n then bad "dangling backslash";
            (match line.[!i + 1] with
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | 'n' -> Buffer.add_char buf '\n'
            | c -> bad (Printf.sprintf "bad escape \\%c" c));
            i := !i + 2;
            value ()
          | c ->
            Buffer.add_char buf c;
            incr i;
            value ()
        in
        value ();
        acc := (k, Buffer.contents buf) :: !acc;
        if !i < n && line.[!i] = ',' then begin
          incr i;
          pairs ()
        end
        else if !i < n && line.[!i] = '}' then incr i
        else bad "expected ',' or '}' in label set"
      in
      pairs ();
      List.rev !acc
    end
    else []
  in
  if !i >= n || line.[!i] <> ' ' then bad "expected space before value";
  let value =
    match String.trim (String.sub line (!i + 1) (n - !i - 1)) with
    | "+Inf" -> infinity
    | "-Inf" -> neg_infinity
    | "NaN" -> nan
    | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> bad "unparseable sample value")
  in
  { s_name = name; s_labels = labels; s_value = value }

let label_key labels =
  String.concat ";"
    (List.map (fun (k, v) -> k ^ "=" ^ v) (List.sort compare labels))

let check_prom path required =
  let lines = String.split_on_char '\n' (read_file path) in
  let types : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let samples = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then (
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; fam; kind ] ->
          if not (Mbr_obs.Prom.is_legal_metric_name fam) then
            fail "prom line %d: illegal family name %S" lineno fam;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail "prom line %d: unknown type %S for %S" lineno kind fam;
          if Hashtbl.mem types fam then
            fail "prom line %d: duplicate # TYPE for %S" lineno fam;
          Hashtbl.add types fam kind
        | _ -> fail "prom line %d: malformed # TYPE line" lineno)
      else if line.[0] = '#' then ()
      else samples := (lineno, parse_sample lineno line) :: !samples)
    lines;
  let samples = List.rev !samples in
  if samples = [] then fail "prom %s: no samples" path;
  (* every sample belongs to a declared family (histogram samples via
     their _bucket/_sum/_count suffix) *)
  let family_of s =
    if Hashtbl.mem types s.s_name then Some s.s_name
    else
      List.find_map
        (fun suf ->
          let ls = String.length suf and ln = String.length s.s_name in
          if ln > ls && String.sub s.s_name (ln - ls) ls = suf then
            let fam = String.sub s.s_name 0 (ln - ls) in
            if Hashtbl.find_opt types fam = Some "histogram" then Some fam
            else None
          else None)
        [ "_bucket"; "_sum"; "_count" ]
  in
  List.iter
    (fun (lineno, s) ->
      if family_of s = None then
        fail "prom line %d: sample %S under no # TYPE family" lineno s.s_name)
    samples;
  (* histogram discipline, per family x label-set (minus le): buckets
     cumulative in file order, last bucket +Inf, +Inf = _count *)
  Hashtbl.iter
    (fun fam kind ->
      if kind = "histogram" then begin
        let groups : (string, (string * float) list) Hashtbl.t =
          Hashtbl.create 4
        in
        List.iter
          (fun (lineno, s) ->
            if s.s_name = fam ^ "_bucket" then begin
              let le =
                match List.assoc_opt "le" s.s_labels with
                | Some le -> le
                | None ->
                  fail "prom line %d: %s_bucket without le label" lineno fam
              in
              let key = label_key (List.remove_assoc "le" s.s_labels) in
              Hashtbl.replace groups key
                ((le, s.s_value)
                :: Option.value (Hashtbl.find_opt groups key) ~default:[])
            end)
          samples;
        if Hashtbl.length groups = 0 then
          fail "prom: histogram %s has no buckets" fam;
        Hashtbl.iter
          (fun key les_rev ->
            let les = List.rev les_rev in
            ignore
              (List.fold_left
                 (fun prev (le, v) ->
                   if v < prev then
                     fail "prom: %s{%s} bucket le=%s not cumulative" fam key le;
                   v)
                 0.0 les);
            match les_rev with
            | ("+Inf", vinf) :: _ -> (
              let count =
                List.find_opt
                  (fun (_, s) ->
                    s.s_name = fam ^ "_count" && label_key s.s_labels = key)
                  samples
              in
              match count with
              | Some (_, s) when s.s_value = vinf -> ()
              | Some _ ->
                fail "prom: %s{%s} +Inf bucket disagrees with _count" fam key
              | None -> fail "prom: %s{%s} has buckets but no _count" fam key)
            | _ -> fail "prom: %s{%s} last bucket is not +Inf" fam key)
          groups
      end)
    types;
  List.iter
    (fun fam ->
      if not (Hashtbl.mem types fam) then
        fail "prom %s: required family %S missing" path fam)
    required;
  Printf.printf "prom OK: %d families, %d samples%s\n" (Hashtbl.length types)
    (List.length samples)
    (if required = [] then ""
     else Printf.sprintf " (%d required present)" (List.length required))

(* ---- --events: progress-event stream validation ---- *)

type pev = {
  e_id : int;
  e_stage : string;
  e_round : int;
  e_resolved : int;
  e_total : int;
}

let check_events path =
  let lines = String.split_on_char '\n' (read_file path) in
  let events =
    List.concat_map
      (fun line ->
        if String.length line = 0 || line.[0] <> '{' then []
        else
          match J.of_string_result line with
          | Error _ -> [] (* stderr chatter that merely starts with '{' *)
          | Ok j ->
            if J.member "event" j = None then []
            else
              let str k = Option.bind (J.member k j) J.to_str in
              let int k = Option.bind (J.member k j) J.to_int in
              (match
                 ( str "event", int "id", str "stage", int "round",
                   int "blocks_resolved", int "blocks_total" )
               with
              | Some "progress", Some id, Some stage, Some round, Some res,
                Some tot ->
                [
                  {
                    e_id = id;
                    e_stage = stage;
                    e_round = round;
                    e_resolved = res;
                    e_total = tot;
                  };
                ]
              | _ -> fail "events: malformed progress event: %s" line))
      lines
  in
  if events = [] then fail "events %s: no progress events" path;
  let id0 = (List.hd events).e_id in
  List.iter
    (fun e ->
      if e.e_id <> id0 then fail "events: mixed request ids %d and %d" id0 e.e_id;
      if not (List.mem e.e_stage stage_order) then
        fail "events: unknown stage %S" e.e_stage;
      if e.e_resolved < 0 || e.e_total < 0 || e.e_resolved > e.e_total then
        fail "events: blocks_resolved %d / blocks_total %d inconsistent"
          e.e_resolved e.e_total)
    events;
  (* rounds and the cumulative block counters never go backwards *)
  ignore
    (List.fold_left
       (fun (pr, pres, ptot) e ->
         if e.e_round < pr then
           fail "events: round went backwards (%d after %d)" e.e_round pr;
         if e.e_resolved < pres then
           fail "events: blocks_resolved went backwards (%d after %d)"
             e.e_resolved pres;
         if e.e_total < ptot then
           fail "events: blocks_total went backwards (%d after %d)" e.e_total
             ptot;
         (e.e_round, e.e_resolved, e.e_total))
       (0, 0, 0) events);
  (* per-round stage order follows Fig. 4; the main pass (round 0)
     enters every stage *)
  let rounds : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun e ->
      Hashtbl.replace rounds e.e_round
        (e.e_stage
        :: Option.value (Hashtbl.find_opt rounds e.e_round) ~default:[]))
    events;
  Hashtbl.iter
    (fun round stages_rev ->
      let rec ordered order seen =
        match (order, seen) with
        | _, [] -> ()
        | [], s :: _ ->
          fail "events: round %d: stage %S out of pipeline order" round s
        | o :: os, s :: ss ->
          if o = s then ordered os ss else ordered os (s :: ss)
      in
      ordered stage_order (List.rev stages_rev))
    rounds;
  let round0 =
    Option.value (Hashtbl.find_opt rounds 0) ~default:[]
  in
  List.iter
    (fun st ->
      if not (List.mem st round0) then
        fail "events: round 0 never entered stage %S" st)
    stage_order;
  Printf.printf "events OK: %d events, %d round(s), request id %d\n"
    (List.length events) (Hashtbl.length rounds) id0

let () =
  match Array.to_list Sys.argv with
  | _ :: "--prom" :: path :: required -> check_prom path required
  | [ _; "--events"; path ] -> check_events path
  | [ _; trace; metrics ] ->
    let spans = check_trace trace in
    let recover_rounds = check_metrics metrics in
    if
      recover_rounds > 0
      && not (List.exists (fun (n, _, _) -> n = "flow.recover") spans)
    then
      fail "metrics count %d recovery rounds but the trace has no \
            flow.recover span"
        recover_rounds
  | _ ->
    prerr_endline
      "usage: telemetry_check TRACE.json METRICS.json\n\
      \       telemetry_check --prom FILE.prom [REQUIRED_FAMILY...]\n\
      \       telemetry_check --events EVENTS.log";
    exit 2
