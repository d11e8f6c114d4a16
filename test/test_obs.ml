(* Tests for Mbr_obs: the telemetry layer (PR: span tracing + metrics
   registry + Chrome trace export).

   - Clock: monotone, starts near zero.
   - Json: printer/parser roundtrip, standard-JSON acceptance,
     accessors, non-finite handling.
   - Metrics: registration semantics, disabled-mode no-ops, the
     Stats.histogram bin convention, and the domain-safety property the
     registry promises — N pool workers bumping shared counters and
     histograms lose no increments, and a snapshot is identical at
     jobs = 1 and jobs = 4 (qcheck).
   - Trace: a traced Flow.run on the tiny design with a 2-domain pool
     exports valid Chrome trace JSON — parsed back with the
     independent parser: every B has its E, the Fig.-4 stages appear in
     pipeline order, the pool's worker domains appear as extra tids,
     the stage spans cover >= 95 % of flow.recompose, and a disabled
     run records nothing. *)

module Obs = Mbr_obs
module J = Mbr_obs.Json
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Flow = Mbr_core.Flow

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---- clock ---- *)

let test_clock () =
  let a = Obs.Clock.now_s () in
  let b = Obs.Clock.now_s () in
  check "monotone" true (b >= a);
  check "non-negative" true (a >= 0.0);
  check "ns/us/s agree" true
    (Float.abs ((Obs.Clock.now_us () *. 1e-6) -. Obs.Clock.now_s ()) < 0.1)

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Num 1.0);
        ("b", J.Str "x\"y\\z\n\t");
        ("c", J.Arr [ J.Bool true; J.Null; J.Num (-2.5); J.Num 1e22 ]);
        ("nested", J.Obj [ ("empty_arr", J.Arr []); ("empty_obj", J.Obj []) ]);
      ]
  in
  check "roundtrip" true (J.of_string (J.to_string v) = v);
  Alcotest.(check string)
    "integral floats print as ints" "{\"n\":42}"
    (J.to_string (J.Obj [ ("n", J.Num 42.0) ]));
  check "non-finite prints as null" true
    (J.to_string (J.Num Float.nan) = "null"
    && J.to_string (J.Num Float.infinity) = "null")

let test_json_parse () =
  let j = J.of_string {| {"xs": [1, 2.5, "s\u0041", false, null], "k": -3e2} |} in
  (match Option.bind (J.member "xs" j) J.to_list with
  | Some [ one; _; s; f; n ] ->
    check "num" true (J.to_int one = Some 1);
    check "unicode escape" true (J.to_str s = Some "sA");
    check "bool" true (f = J.Bool false);
    check "null" true (n = J.Null)
  | _ -> Alcotest.fail "xs shape");
  check "exponent" true (Option.bind (J.member "k" j) J.to_float = Some (-300.0));
  check "trailing garbage rejected" true
    (match J.of_string "{} x" with
    | exception J.Parse_error _ -> true
    | _ -> false);
  check "to_int on non-integral" true (J.to_int (J.Num 1.5) = None)

(* typed errors: the wire-format entry point reports the failure mode
   as data, and agrees with the legacy exception's message *)
let test_json_typed_errors () =
  let kind_of s =
    match J.of_string_result s with
    | Ok _ -> None
    | Error e -> Some e.J.kind
  in
  check "trailing garbage" true (kind_of "{} x" = Some J.Trailing_garbage);
  check "unterminated string" true
    (kind_of "\"abc" = Some J.Unterminated_string);
  check "unterminated key mid-object" true
    (kind_of "{\"k" = Some J.Unterminated_string);
  check "empty input" true (kind_of "" = Some J.Unexpected_end);
  check "truncated object" true (kind_of "{\"k\": 1" = Some (J.Expected "',' or '}'"));
  check "bad escape" true (kind_of "\"a\\x\"" = Some J.Bad_escape);
  check "truncated \\u escape" true (kind_of "\"\\u00" = Some J.Bad_escape);
  check "bad number" true (kind_of "-" = Some J.Bad_number);
  check "missing colon" true (kind_of "{\"k\" 1}" = Some (J.Expected "':'"));
  check "bare garbage" true (kind_of "@" = Some J.Bad_number);
  (match J.of_string_result "{} x" with
  | Error e ->
    checki "offset points at the garbage" 3 e.J.offset;
    let msg =
      match J.of_string "{} x" with
      | exception J.Parse_error m -> m
      | _ -> Alcotest.fail "of_string accepted trailing garbage"
    in
    Alcotest.(check string)
      "exception message = error_to_string" (J.error_to_string e) msg
  | Ok _ -> Alcotest.fail "of_string_result accepted trailing garbage");
  check "ok path" true (J.of_string_result "[1, 2]" = Ok (J.Arr [ J.Num 1.0; J.Num 2.0 ]))

(* \uXXXX escapes: surrogate pairs combine into one code point (4-byte
   UTF-8), lone surrogates are Bad_escape, and the error offset points
   into the escape *)
let test_json_surrogates () =
  check "surrogate pair combines to 4-byte UTF-8" true
    (J.of_string "\"\\uD83D\\uDE00\"" = J.Str "\240\159\152\128");
  check "3-byte BMP escape" true
    (J.of_string "\"\\u20AC\"" = J.Str "\226\130\172");
  check "2-byte escape" true (J.of_string "\"\\u00E9\"" = J.Str "\195\169");
  check "astral char roundtrips raw through the printer" true
    (J.of_string (J.to_string (J.Str "\240\159\152\128"))
    = J.Str "\240\159\152\128");
  let err s =
    match J.of_string_result s with
    | Ok _ -> None
    | Error e -> Some (e.J.kind, e.J.offset)
  in
  check "lone high surrogate" true (err "\"\\uD83D\"" = Some (J.Bad_escape, 7));
  check "lone low surrogate" true (err "\"\\uDC00\"" = Some (J.Bad_escape, 7));
  check "high surrogate + non-low escape" true
    (err "\"\\uD83D\\u0041\"" = Some (J.Bad_escape, 13));
  check "non-hex digits" true (err "\"\\uZZ00\"" = Some (J.Bad_escape, 3));
  check "truncated escape" true (err "\"\\u00" = Some (J.Bad_escape, 3))

(* qcheck: anything the printers emit, the parser reads back, bit for
   bit — compact and pretty. Numbers are drawn from values [%.12g]
   renders exactly (integers and sixteenths), since JSON printing of
   arbitrary doubles is deliberately lossy in this module. *)
let json_gen =
  let open QCheck2.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map (fun i -> float_of_int i /. 16.0) (int_range (-16_000) 16_000);
      ]
  in
  let str = small_string ~gen:(map Char.chr (int_range 0 255)) in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun f -> J.Num f) num;
        map (fun s -> J.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> J.Arr l) (list_size (int_range 0 4) (self (n / 2)));
               map
                 (fun l -> J.Obj l)
                 (list_size (int_range 0 4) (pair str (self (n / 2))));
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"json: write -> read roundtrip"
    json_gen
    (fun v ->
      J.of_string (J.to_string v) = v
      &&
      match J.of_string_result (J.to_string_pretty v) with
      | Ok v' -> v' = v
      | Error _ -> false)

(* ---- metrics ---- *)

let test_metrics_registry () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "test.reg.c" in
  let c' = Obs.Metrics.counter "test.reg.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:2 c';
  checki "idempotent registration shares state" 3 (Obs.Metrics.counter_value c);
  check "kind mismatch raises" true
    (match Obs.Metrics.gauge "test.reg.c" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Obs.Metrics.disable ();
  Obs.Metrics.incr c;
  checki "disabled bump is a no-op" 3 (Obs.Metrics.counter_value c);
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  checki "reset zeroes, keeps handle" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  checki "handle live after reset" 1 (Obs.Metrics.counter_value c);
  Obs.Metrics.disable ()

let test_histogram_bins () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let bins = [| 1.0; 2.0; 4.0 |] in
  let h = Obs.Metrics.histogram ~bins "test.histo.bins" in
  let xs = [| 0.5; 1.0; 1.5; 2.0; 3.9; 4.0; 4.1; 100.0 |] in
  Array.iter (Obs.Metrics.observe h) xs;
  let snap = Obs.Metrics.snapshot () in
  let hs = List.assoc "test.histo.bins" snap.Obs.Metrics.histograms in
  (* the registry must place observations exactly like Stats.histogram *)
  Alcotest.(check (array int))
    "Stats.histogram convention"
    (Mbr_util.Stats.histogram ~bins xs)
    hs.Obs.Metrics.counts;
  checki "count" (Array.length xs) hs.Obs.Metrics.count;
  check "sum" true
    (Float.abs (hs.Obs.Metrics.sum -. Array.fold_left ( +. ) 0.0 xs) < 1e-9);
  check "re-registration with other bins raises" true
    (match Obs.Metrics.histogram ~bins:[| 9.0 |] "test.histo.bins" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Obs.Metrics.disable ()

(* qcheck: concurrent bumps from pool workers lose nothing, and the
   snapshot is independent of the jobs setting *)
let prop_concurrent_counts =
  QCheck2.Test.make ~count:25 ~name:"metrics: pool workers lose no increments"
    QCheck2.Gen.(pair (int_range 1 400) (int_range 1 7))
    (fun (n_tasks, by) ->
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let c = Obs.Metrics.counter "test.conc.c" in
      let h = Obs.Metrics.histogram "test.conc.h" in
      let work _i =
        Obs.Metrics.incr ~by c;
        Obs.Metrics.observe h 0.002
      in
      let snap_for jobs =
        Obs.Metrics.reset ();
        ignore
          (Mbr_util.Pool.map_array ~jobs work (Array.init n_tasks Fun.id));
        Obs.Metrics.snapshot ()
      in
      let serial = snap_for 1 in
      let parallel = snap_for 4 in
      Obs.Metrics.disable ();
      let total (s : Obs.Metrics.snapshot) =
        List.assoc "test.conc.c" s.Obs.Metrics.counters
      in
      let hcount (s : Obs.Metrics.snapshot) =
        (List.assoc "test.conc.h" s.Obs.Metrics.histograms).Obs.Metrics.count
      in
      total serial = n_tasks * by
      && total parallel = n_tasks * by
      && hcount serial = n_tasks
      && hcount parallel = n_tasks
      (* identical snapshots up to the pool's own scheduling counters,
         which legitimately differ between jobs settings *)
      && List.filter (fun (k, _) -> not (String.length k >= 5 && String.sub k 0 5 = "pool."))
           serial.Obs.Metrics.counters
         = List.filter (fun (k, _) -> not (String.length k >= 5 && String.sub k 0 5 = "pool."))
             parallel.Obs.Metrics.counters
      && serial.Obs.Metrics.histograms = parallel.Obs.Metrics.histograms)

(* ---- labeled series, quantiles, snapshot algebra ---- *)

let test_labeled_metrics () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let a = Obs.Metrics.counter ~labels:[ ("session", "a") ] "test.lab.c" in
  let b = Obs.Metrics.counter ~labels:[ ("session", "b") ] "test.lab.c" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr ~by:2 b;
  let snap = Obs.Metrics.snapshot () in
  checki "series a independent" 1
    (List.assoc "test.lab.c{session=\"a\"}" snap.Obs.Metrics.counters);
  checki "series b independent" 2
    (List.assoc "test.lab.c{session=\"b\"}" snap.Obs.Metrics.counters);
  check "label order canonicalized" true
    (Obs.Metrics.series_name "m" [ ("z", "1"); ("a", "2") ]
    = Obs.Metrics.series_name "m" [ ("a", "2"); ("z", "1") ]);
  check "split_series inverts series_name" true
    (Obs.Metrics.split_series "test.lab.c{session=\"a\"}"
    = ("test.lab.c", [ ("session", "a") ]));
  check "unlabeled key passes through split" true
    (Obs.Metrics.split_series "plain.name" = ("plain.name", []));
  check "escaped label value survives" true
    (let key = Obs.Metrics.series_name "m" [ ("k", "a\"b\\c\nd") ] in
     Obs.Metrics.split_series key = ("m", [ ("k", "a\"b\\c\nd") ]));
  Obs.Metrics.disable ()

(* qcheck: labeled series bumped from pool workers lose nothing and
   agree between jobs settings, exactly like unlabeled ones *)
let prop_labeled_concurrent =
  QCheck2.Test.make ~count:20
    ~name:"metrics: labeled series lose no increments under pool"
    QCheck2.Gen.(int_range 1 200)
    (fun n_tasks ->
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let series =
        Array.init 4 (fun i ->
            Obs.Metrics.counter
              ~labels:[ ("w", string_of_int i) ]
              "test.labc.c")
      in
      let work i = Obs.Metrics.incr series.(i mod 4) in
      let totals_for jobs =
        Obs.Metrics.reset ();
        ignore (Mbr_util.Pool.map_array ~jobs work (Array.init n_tasks Fun.id));
        let s = Obs.Metrics.snapshot () in
        List.filter
          (fun (k, _) -> fst (Obs.Metrics.split_series k) = "test.labc.c")
          s.Obs.Metrics.counters
      in
      let serial = totals_for 1 in
      let parallel = totals_for 4 in
      Obs.Metrics.disable ();
      serial = parallel
      && List.fold_left (fun acc (_, v) -> acc + v) 0 serial = n_tasks)

let test_quantile () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let h = Obs.Metrics.histogram ~bins:[| 1.0; 2.0; 4.0 |] "test.q.h" in
  let hs () =
    List.assoc "test.q.h" (Obs.Metrics.snapshot ()).Obs.Metrics.histograms
  in
  check "empty histogram -> 0" true (Obs.Metrics.quantile (hs ()) 0.5 = 0.0);
  for _ = 1 to 100 do
    Obs.Metrics.observe h 0.5
  done;
  (* 100 observations in (0,1]: rank interpolation is exact *)
  check "p50 interpolates inside the bin" true
    (Float.abs (Obs.Metrics.quantile (hs ()) 0.5 -. 0.5) < 1e-9);
  check "p99 interpolates inside the bin" true
    (Float.abs (Obs.Metrics.quantile (hs ()) 0.99 -. 0.99) < 1e-9);
  for _ = 1 to 100 do
    Obs.Metrics.observe h 100.0
  done;
  check "overflow rank clamps to the last finite edge" true
    (Obs.Metrics.quantile (hs ()) 0.99 = 4.0);
  check "q clamped to [0,1]" true (Obs.Metrics.quantile (hs ()) 2.0 = 4.0);
  Obs.Metrics.disable ()

(* qcheck: the delta algebra behind the telemetry verb — replaying a
   diff onto its base reproduces the newer snapshot, and the JSON
   codec is lossless *)
let prop_snapshot_diff =
  QCheck2.Test.make ~count:60 ~name:"metrics: apply(diff) = newer snapshot"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 30) (int_range 0 5))
        (list_size (int_range 0 30) (int_range 0 5)))
    (fun (ops1, ops2) ->
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let c = Obs.Metrics.counter "test.diff.c" in
      let g = Obs.Metrics.gauge "test.diff.g" in
      let h = Obs.Metrics.histogram ~bins:[| 1.0; 2.0 |] "test.diff.h" in
      let lab = Obs.Metrics.counter ~labels:[ ("s", "x") ] "test.diff.c2" in
      let apply_op i =
        match i with
        | 0 -> Obs.Metrics.incr c
        | 1 -> Obs.Metrics.set g (float_of_int i)
        | 2 -> Obs.Metrics.observe h 1.5
        | 3 -> Obs.Metrics.incr lab
        | 4 -> Obs.Metrics.observe h 0.25
        | _ -> Obs.Metrics.set g 7.5
      in
      List.iter apply_op ops1;
      let s1 = Obs.Metrics.snapshot () in
      List.iter apply_op ops2;
      let s2 = Obs.Metrics.snapshot () in
      Obs.Metrics.disable ();
      let delta = Obs.Metrics.Snapshot.diff ~base:s1 s2 in
      Obs.Metrics.Snapshot.apply ~base:s1 delta = s2
      && Obs.Metrics.snapshot_of_json (Obs.Metrics.snapshot_json s2) = Ok s2
      && Obs.Metrics.snapshot_of_json (Obs.Metrics.snapshot_json delta)
         = Ok delta)

(* ---- prometheus exposition ---- *)

(* qcheck: whatever garbage the registry holds, the renderer's output
   obeys the exposition grammar — legal metric and label names, one
   # TYPE per family, every sample line value parseable *)
let prom_snapshot_gen =
  let open QCheck2.Gen in
  let str = small_string ~gen:(map Char.chr (int_range 32 126)) in
  let key =
    map2 Obs.Metrics.series_name str (list_size (int_range 0 2) (pair str str))
  in
  let histo =
    map2
      (fun edges counts ->
        let bins =
          Array.of_list
            (List.sort_uniq compare (List.map (fun i -> float_of_int i /. 4.0) edges))
        in
        let counts =
          Array.init
            (Array.length bins + 1)
            (fun i -> try List.nth counts i with _ -> 0)
        in
        {
          Obs.Metrics.bins;
          counts;
          sum = Array.fold_left (fun a c -> a +. float_of_int c) 0.0 counts;
          count = Array.fold_left ( + ) 0 counts;
        })
      (list_size (int_range 1 4) (int_range (-8) 32))
      (list_size (return 5) (int_range 0 50))
  in
  map3
    (fun cs gs hs -> { Obs.Metrics.counters = cs; gauges = gs; histograms = hs })
    (list_size (int_range 0 5) (pair key (int_range 0 1000)))
    (list_size (int_range 0 5)
       (pair key (map (fun i -> float_of_int i /. 8.0) (int_range (-800) 800))))
    (list_size (int_range 0 3) (pair key histo))

let prop_prom_legal =
  QCheck2.Test.make ~count:100 ~name:"prom: rendered exposition is legal"
    prom_snapshot_gen
    (fun snap ->
      let text = Obs.Prom.render snap in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      let type_fams = Hashtbl.create 8 in
      List.for_all
        (fun line ->
          if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then (
            match String.split_on_char ' ' line with
            | [ _; _; fam; kind ] ->
              Obs.Prom.is_legal_metric_name fam
              && List.mem kind [ "counter"; "gauge"; "histogram" ]
              && not (Hashtbl.mem type_fams fam)
              && (Hashtbl.add type_fams fam ();
                  true)
            | _ -> false)
          else if String.length line >= 1 && line.[0] = '#' then true
          else
            (* sample: NAME["{" labels "}"] " " VALUE *)
            let name_end =
              match
                (String.index_opt line '{', String.index_opt line ' ')
              with
              | Some a, Some b -> min a b
              | None, Some b -> b
              | _, None -> -1
            in
            name_end > 0
            && Obs.Prom.is_legal_metric_name (String.sub line 0 name_end)
            && (* label values never contain raw spaces after escaping, so
                  the last space separates the value *)
            (match String.rindex_opt line ' ' with
            | None -> false
            | Some sp ->
              let v = String.sub line (sp + 1) (String.length line - sp - 1) in
              v = "+Inf" || v = "-Inf" || v = "NaN"
              || float_of_string_opt v <> None))
        lines)

(* ---- trace export over a real flow ---- *)

let fig4_stages =
  [ "eco-reset"; "metrics-before"; "decompose"; "compat-graph";
    "blocker-index"; "allocate"; "merge"; "scan-restitch"; "skew";
    "resize"; "metrics-after" ]

type ev = { name : string; ph : string; ts : float; tid : int }

let events_of_export j =
  match Option.bind (J.member "traceEvents" j) J.to_list with
  | None -> Alcotest.fail "no traceEvents array"
  | Some l ->
    List.map
      (fun e ->
        let get k f = Option.bind (J.member k e) f in
        match (get "name" J.to_str, get "ph" J.to_str, get "ts" J.to_float,
               get "pid" J.to_int, get "tid" J.to_int) with
        | Some name, Some ph, Some ts, Some _, Some tid -> { name; ph; ts; tid }
        | _ -> Alcotest.fail ("malformed event: " ^ J.to_string e))
      l

let run_tiny_traced () =
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  let g = G.generate (P.tiny ~seed:11) in
  let options = { Flow.default_options with Flow.jobs = Some 2 } in
  let r =
    Flow.run ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  Obs.Trace.disable ();
  let j = J.of_string (J.to_string (Obs.Trace.export ())) in
  (r, events_of_export j)

let test_trace_export () =
  let r, events = run_tiny_traced () in
  check "has events" true (events <> []);
  (* timestamps are exported in order *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.ts <= b.ts && sorted rest
    | _ -> true
  in
  check "ts sorted" true (sorted events);
  (* per-tid stack discipline: every B closed by a matching E *)
  let stacks = Hashtbl.create 8 in
  let spans = ref [] in
  List.iter
    (fun e ->
      let s =
        match Hashtbl.find_opt stacks e.tid with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks e.tid s;
          s
      in
      match e.ph with
      | "B" -> s := (e.name, e.ts) :: !s
      | "E" -> (
        match !s with
        | (name, t0) :: rest ->
          check "E matches innermost B" true (name = e.name);
          s := rest;
          spans := (name, e.tid, e.ts -. t0) :: !spans
        | [] -> Alcotest.fail "E with no open span")
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ s -> check "all spans closed" true (!s = []))
    stacks;
  (* Fig.-4 stage order *)
  let stage_begins =
    List.filter_map
      (fun e ->
        if e.ph = "B" && List.mem e.name fig4_stages then Some e.name else None)
      events
  in
  Alcotest.(check (list string)) "stages in pipeline order" fig4_stages
    stage_begins;
  (* the jobs = 2 pool ran worker spans on >= 2 distinct domains *)
  let worker_tids =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, tid, _) -> if n = "pool.worker" then Some tid else None)
         !spans)
  in
  check "pool workers on >= 2 domains" true (List.length worker_tids >= 2);
  (* stage spans cover >= 95 % of the recompose span, which equals
     runtime_s (same clock, same reads) *)
  let dur name =
    List.fold_left
      (fun acc (n, _, d) -> if n = name then acc +. d else acc)
      0.0 !spans
  in
  let recompose_us = dur "flow.recompose" in
  check "recompose span = runtime_s" true
    (Float.abs ((recompose_us *. 1e-6) -. r.Flow.runtime_s) < 1e-9);
  let stage_us =
    List.fold_left (fun acc n -> acc +. dur n) 0.0 fig4_stages
  in
  check "stage coverage >= 95%" true (stage_us >= 0.95 *. recompose_us);
  (* stage_times in the result are the stage spans' own durations *)
  List.iter
    (fun (name, t) ->
      check (name ^ " time matches span") true
        (Float.abs ((dur name *. 1e-6) -. t) < 1e-9))
    r.Flow.stage_times

(* Session.create is the session's one full analysis: on a from-scratch
   run the eco-reset stage opens no analysis and builds no plan, and
   the analysis lies before the recompose span. *)
let test_eco_reset_no_sta_work () =
  let _, events = run_tiny_traced () in
  let depth = ref 0 and seen_recompose = ref false and analyzed_before = ref false in
  List.iter
    (fun e ->
      match (e.ph, e.name) with
      | "B", "eco-reset" -> incr depth
      | "E", "eco-reset" -> decr depth
      | "B", "flow.recompose" -> seen_recompose := true
      | "B", ("sta.analyze" | "sta.plan.build") ->
        if !depth > 0 then Alcotest.fail (e.name ^ " inside eco-reset");
        if not !seen_recompose then analyzed_before := true
      | _ -> ())
    events;
  check "analysis before the recompose" true !analyzed_before

let test_trace_disabled () =
  Obs.Trace.clear ();
  check "disabled by default here" false (Obs.Trace.is_enabled ());
  let g = G.generate (P.tiny ~seed:2) in
  let r =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  checki "no events recorded when disabled" 0 (Obs.Trace.n_events ());
  (* timings still flow to the caller *)
  check "runtime measured anyway" true (r.Flow.runtime_s > 0.0);
  check "stage times measured anyway" true
    (List.for_all (fun (_, t) -> t >= 0.0) r.Flow.stage_times)

(* the ring is bounded: with capacity 8, 100 instants keep only the
   last 8 in order and account for the rest in dropped_events *)
let test_trace_ring_bound () =
  let saved = Obs.Trace.get_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Metrics.disable ();
      Obs.Trace.set_capacity saved;
      Obs.Trace.clear ())
    (fun () ->
      Obs.Trace.set_capacity 8;
      Obs.Trace.clear ();
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let dropped0 = Obs.Trace.dropped_events () in
      Obs.Trace.enable ();
      for i = 0 to 99 do
        Obs.Trace.instant (Printf.sprintf "tick%d" i)
      done;
      Obs.Trace.disable ();
      checki "ring holds exactly capacity" 8 (Obs.Trace.n_events ());
      checki "overflow counted as dropped" 92
        (Obs.Trace.dropped_events () - dropped0);
      let names =
        List.map
          (fun e -> e.name)
          (events_of_export (J.of_string (J.to_string (Obs.Trace.export ()))))
      in
      Alcotest.(check (list string))
        "export keeps the newest events in order"
        (List.init 8 (fun i -> Printf.sprintf "tick%d" (92 + i)))
        names;
      check "dropped surfaces in metrics snapshot" true
        (match
           List.assoc_opt "trace.dropped"
             (Obs.Metrics.snapshot ()).Obs.Metrics.counters
         with
        | Some n -> n >= 92
        | None -> false))

let () =
  Alcotest.run "mbr_obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "typed errors" `Quick test_json_typed_errors;
          Alcotest.test_case "surrogates" `Quick test_json_surrogates;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "histogram bins" `Quick test_histogram_bins;
          Alcotest.test_case "labeled series" `Quick test_labeled_metrics;
          Alcotest.test_case "quantile" `Quick test_quantile;
          QCheck_alcotest.to_alcotest prop_concurrent_counts;
          QCheck_alcotest.to_alcotest prop_labeled_concurrent;
          QCheck_alcotest.to_alcotest prop_snapshot_diff;
        ] );
      ( "prom",
        [ QCheck_alcotest.to_alcotest prop_prom_legal ] );
      ( "trace",
        [
          Alcotest.test_case "export over traced flow" `Quick test_trace_export;
          Alcotest.test_case "eco-reset does no STA work" `Quick
            test_eco_reset_no_sta_work;
          Alcotest.test_case "disabled mode" `Quick test_trace_disabled;
          Alcotest.test_case "ring bound" `Quick test_trace_ring_bound;
        ] );
    ]
