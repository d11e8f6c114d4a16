(* perfbench — the repository benchmark.

     main.exe --workload compose_mix|eco_d1|svc_mix --seed N --seconds S
              --trace 0|1 [--commit ID]

   --trace 0 runs the workload once and prints the end-to-end metrics,
   the in-process workloads' times scaled by the host-speed probe
   (Probe); --trace 1 runs
   it untraced, traced and untraced again on the same inputs and prints
   the per-layer metrics. Human-readable lines come first; the last
   line of standard output is the JSON result. See README.md in this
   directory. *)

open Perfbench
module W = Workload
module A = Arith
module Trace = Mbr_obs.Trace
module Metrics = Mbr_obs.Metrics

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let commit = ref "unknown"

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Schema.workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "ID  source revision, recorded as provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* ---- sizing: op counts are fixed by --seconds (never by elapsed
   time), so op counts and QoR sums repeat exactly. The nominal costs
   are what one op took on the reference host (2 vCPU). The per-layer
   run makes three passes, each of half that size, so that it takes
   about as long as a timed run plus half. *)

let compose_op_s = 0.7
let eco_op_s = 0.35
let eco_episodes = 6
let svc_req_per_s = 300.0
let svc_epochs = 3

let sized () = if !trace = 1 then float !seconds /. 2.0 else float !seconds

let rotations () = max 5 (int_of_float (Float.round (sized () /. (5.0 *. compose_op_s))))

let eco_rounds () =
  max 4 (int_of_float (Float.round (sized () /. (float eco_episodes *. eco_op_s))))

(* steps of one session's program in one epoch *)
let svc_len () =
  max 6
    (int_of_float
       (Float.round
          (sized () *. svc_req_per_s
          /. float (svc_epochs * Svc.connections * Svc.sessions_per_conn))))

(* telemetry polls of one epoch: one per mbrc top interval *)
let svc_polls () =
  max 1 (int_of_float (Float.round (sized () /. float svc_epochs /. Svc.top_interval_s)))

(* ---- provenance ---- *)

let nproc = Domain.recommended_domain_count ()

let source_digest () =
  let rec walk dir acc =
    match Sys.readdir dir with
    | exception Sys_error _ -> acc
    | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p acc
          else if
            List.exists (Filename.check_suffix e) [ ".ml"; ".mli" ] || e = "dune"
          then (p ^ ":" ^ Digest.to_hex (Digest.file p)) :: acc
          else acc)
        acc entries
  in
  let files = List.concat_map (fun d -> List.rev (walk d [])) [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex (Digest.string (String.concat "\n" files))

let provenance () =
  let open Mbr_obs.Json in
  let pinned =
    match !workload with
    | "svc_mix" ->
      [
        ("mbrd_workers", Num (float Svc.workers));
        ("connections", Num (float Svc.connections));
        ("sessions_per_connection", Num (float Svc.sessions_per_conn));
        ("alloc_jobs", Num 1.0);
      ]
    | _ -> [ ("threads", Num 1.0); ("alloc_jobs", Num 1.0) ]
  in
  Obj
    ([
       ("workload", Str !workload);
       ("seed", Num (float !seed));
       ("seconds", Num (float !seconds));
       ("trace", Num (float !trace));
       ("nproc", Num (float nproc));
       ("ocaml", Str Sys.ocaml_version);
       ("ocamlrunparam", Str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
       ("minor_heap_words", Num (float (Gc.get ()).Gc.minor_heap_size));
       ("commit", Str !commit);
       ("source_digest", Str (source_digest ()));
     ]
    @ pinned)

(* ---- printing ---- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metric schema name =
  match Schema.find name schema with
  | Some m -> m
  | None -> invalid_arg ("perfbench: metric missing from the schema: " ^ name)

let print_metrics ~schema values =
  List.iter
    (fun (name, v) ->
      let m = metric schema name in
      Printf.printf "  %-28s %16.6f %-6s %s\n" name v m.Schema.unit_
        (Schema.better_to_string m.Schema.better))
    values

let print_result ~correct ~attempted ~failed ~schema values =
  let metrics =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
          (metric schema name).Schema.unit_)
      values
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

let report_failures fs =
  List.iteri (fun i m -> if i < 20 then Printf.printf "  FAILED %s\n" m) fs

(* ---- end-to-end metrics ---- *)

type e2e = {
  result : Report.timing;  (** what the result reports *)
  measured : Report.timing option;  (** as measured, when [result] is probe-scaled *)
  by_verb : (string * float array) list;  (** svc_mix: request seconds per verb *)
  attempted : int;
  failed : int;
  failures : string list;
  rss_mb : float;
  qor : W.qor;
}

let of_run (r : W.run) =
  let timing lat setup pick =
    {
      Report.lat_s = lat;
      setup_s = setup;
      segments = Array.map (fun (n, wall, scaled) -> (n, pick (wall, scaled))) r.W.segments;
    }
  in
  {
    result = timing r.W.scaled_s r.W.setup_scaled_s snd;
    measured = Some (timing r.W.latencies_s r.W.setup_s fst);
    by_verb = [];
    attempted = Array.length r.W.latencies_s;
    failed = r.W.failed;
    failures = r.W.failures;
    rss_mb = r.W.peak_rss_mb;
    qor = r.W.qor;
  }

let of_epochs (es : Svc.epoch list) =
  let rtts = List.concat_map (fun e -> e.Svc.e_rtts) es in
  let replay_qor =
    List.fold_left
      (fun q (r : Svc.replay) ->
        { q with W.clk_cap = q.W.clk_cap +. r.Svc.r_qor.W.clk_cap; wl = q.W.wl +. r.Svc.r_qor.W.wl })
      W.qor0 (List.map (fun e -> e.Svc.e_replay) es)
  in
  let of_verb v = Array.of_list (List.filter_map (fun (v', s) -> if v' = v then Some s else None) rtts) in
  {
    result =
      {
        Report.lat_s = Array.of_list (List.map snd rtts);
        setup_s = Array.of_list (List.map (fun e -> e.Svc.e_setup_s) es);
        segments = Array.of_list (List.map (fun e -> (List.length e.Svc.e_rtts, e.Svc.e_mix_s)) es);
      };
    measured = None;
    by_verb = List.map (fun v -> (v, of_verb v)) Schema.service_verbs;
    attempted = List.length rtts;
    failed = List.fold_left (fun acc e -> acc + e.Svc.e_failed) 0 es;
    failures = List.concat_map (fun e -> e.Svc.e_failures) es;
    rss_mb = List.fold_left (fun acc e -> Float.max acc e.Svc.e_rss_mb) 0.0 es;
    qor =
      {
        replay_qor with
        W.regs = List.fold_left (fun acc e -> acc + e.Svc.e_regs) 0 es;
        tns = List.fold_left (fun acc e -> acc +. e.Svc.e_tns) 0.0 es;
      };
  }

let finish_e2e e =
  let values t = Report.end_to_end t ~rss_mb:e.rss_mb ~qor:e.qor in
  let tail, result = values e.result in
  Printf.printf "ops: attempted %d, failed %d\n" e.attempted e.failed;
  (match tail with
  | Some t ->
    Printf.printf "tail: p%.1f of %d ops (%d ops beyond it)\n" t.A.pct t.A.n t.A.beyond
  | None -> Printf.printf "tail: none (%d ops; a tail needs more than 21)\n" e.attempted);
  List.iter
    (fun (verb, xs) ->
      if Array.length xs > 0 then
        Printf.printf "p50 of %s: %.3f ms over %d requests\n" verb
          (A.median xs *. 1000.0) (Array.length xs))
    e.by_verb;
  report_failures e.failures;
  (match e.measured with
  | Some m ->
    Printf.printf "as measured, before probe scaling:\n";
    print_metrics ~schema:Schema.end_to_end (snd (values m));
    Printf.printf "probe-scaled (the result):\n"
  | None -> Printf.printf "as measured (the result):\n");
  print_metrics ~schema:Schema.end_to_end result;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) result in
  print_result
    ~correct:(e.failed = 0 && tail <> None && finite)
    ~attempted:e.attempted ~failed:e.failed ~schema:Schema.end_to_end
    (List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) result)

(* ---- the workloads ---- *)

(* Scratch files (the daemon's socket, log and trace; eco_d1's design
   copies) go to a directory of the checkout, removed afterwards. *)
let run_dir = ".perfbench_run"

let with_scratch_dir name f =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let d = Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Sys.mkdir d 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () -> f d)

let run_in_process () =
  match !workload with
  | "compose_mix" -> W.compose_mix ~seed:!seed ~rotations:(rotations ()) ~scale:0.4 ()
  | "eco_d1" ->
    with_scratch_dir "eco" (fun dir ->
        W.eco_d1 ~dir ~seed:!seed ~episodes:eco_episodes ~rounds:(eco_rounds ()) ~scale:1.0 ())
  | w -> die "unknown workload %S" w

(* svc_mix runs the daemon run.sh builds *)
let mbrd = "_build/default/bin/mbrd.exe"

(* [traced] lists, per epoch, whether its daemon runs with --trace *)
let svc_epochs_run ~sampled traced =
  if not (Sys.file_exists mbrd) then die "no mbrd binary at %s" mbrd;
  with_scratch_dir "svc" (fun dir ->
      (* each epoch merges the session programs in its own order *)
      let rng = Mbr_util.Rng.create !seed in
      (* the programs are fixed, so one session per epoch, a new one
         each time and the connections in turn, covers more of them *)
      List.mapi
        (fun i traced ->
          let seed = Mbr_util.Rng.int rng 0x3FFFFFFF in
          let replay =
            (i mod Svc.connections * Svc.sessions_per_conn)
            + (i / Svc.connections mod Svc.sessions_per_conn)
          in
          Svc.epoch ~mbrd ~dir ~seed ~len:(svc_len ()) ~polls:(svc_polls ()) ~replay ~traced ~sampled)
        traced)

(* ---- per-layer metrics ---- *)

let gc_values ~ops (g : W.gc) =
  let per = if ops = 0 then 0.0 else 1.0 /. float ops in
  [
    ("gc.minor_words_per_op", g.W.minor_words *. per);
    ("gc.major_words_per_op", g.W.major_words *. per);
    ("gc.major_collections", float g.W.major_collections);
    ("gc.compactions", float g.W.compactions);
  ]

(* [p50s] are the p50 latencies (ms) of the three passes: untraced,
   traced, untraced. The overhead divides the traced one by the mean of
   the two around it, so the order the passes run in (a warmer heap, a
   drifting host) does not read as overhead. *)
let finish_layers ~attempted ~failed ~failures ~p50s:(u0, traced, u1) ~dropped values self_us =
  let values =
    values
    @ [
        ("trace.p50_untraced_before_ms", u0);
        ("trace.p50_untraced_after_ms", u1);
        ("trace.p50_untraced_ms", (u0 +. u1) /. 2.0);
        ("trace.p50_traced_ms", traced);
        ("trace.dropped", float dropped);
      ]
  in
  let table = Layers.table values in
  let failures =
    failures @ if dropped > 0 then [ Printf.sprintf "trace ring dropped %d events" dropped ] else []
  in
  let failed = failed + if dropped > 0 then 1 else 0 in
  Printf.printf "ops: attempted %d, failed %d\n" attempted failed;
  report_failures failures;
  print_metrics ~schema:Schema.per_layer table;
  List.iter
    (fun (name, num, den) ->
      Printf.printf "  %s = (%s) / (%s)\n" name (String.concat " + " num) (String.concat " + " den))
    Schema.ratios;
  Printf.printf "  trace.p50_untraced_ms = mean(trace.p50_untraced_before_ms, trace.p50_untraced_after_ms)\n";
  Printf.printf "self time by span, traced phase (ms):\n";
  List.iteri
    (fun i (name, us) -> if i < 24 then Printf.printf "  %-28s %12.3f\n" name (us /. 1000.0))
    self_us;
  print_result ~correct:(failed = 0) ~attempted ~failed ~schema:Schema.per_layer table

(* The traced pass's per-layer values, from its spans and the registry
   delta; the spans are dropped before the last untraced pass. *)
let in_process_values (traced : W.run) ~delta =
  let spans = A.spans_of_trace (Trace.export ()) in
  let sm = Layers.from_spans ~is_op:(fun _ s -> s.A.name = "bench.op") spans in
  let ops = Array.length traced.W.latencies_s in
  let perturbs = A.total_us spans "bench.perturb" in
  let n_perturbs = Array.fold_left (fun n s -> if s.A.name = "bench.perturb" then n + 1 else n) 0 spans in
  ( sm.Layers.values
    @ Layers.counters_of delta
    @ gc_values ~ops traced.W.gc
    @ [
        ("designgen.generate_s", A.total_us spans "bench.generate" *. 1e-6);
        ("designgen.perturb_ms", if n_perturbs = 0 then 0.0 else perturbs /. 1000.0 /. float n_perturbs);
        ("sta.build_s", A.total_us spans "bench.session_create" *. 1e-6);
        ("core.alloc.blocks", float traced.W.alloc_blocks);
        ("core.alloc.candidates", float traced.W.alloc_candidates);
        ("core.alloc.block_max_s", traced.W.alloc_block_max_s);
      ],
    sm.Layers.self_us )

let in_process_layers () =
  let before = run_in_process () in
  Trace.set_capacity (1 lsl 21);
  Trace.clear ();
  Metrics.reset ();
  Metrics.enable ();
  Trace.enable ();
  let dropped0 = Trace.dropped_events () in
  let s0 = Metrics.snapshot () in
  let traced = run_in_process () in
  let s1 = Metrics.snapshot () in
  Trace.disable ();
  Metrics.disable ();
  let dropped = Trace.dropped_events () - dropped0 in
  let values, self_us = in_process_values traced ~delta:(Metrics.Snapshot.diff ~base:s0 s1) in
  Trace.clear ();
  Trace.set_capacity Trace.default_capacity;
  let after = run_in_process () in
  let p50 (r : W.run) = A.median r.W.scaled_s *. 1000.0 in
  finish_layers ~attempted:(Array.length traced.W.latencies_s) ~failed:traced.W.failed
    ~failures:traced.W.failures ~p50s:(p50 before, p50 traced, p50 after) ~dropped values self_us

let svc_layers () =
  let before, e, after =
    match svc_epochs_run ~sampled:true [ false; true; false ] with
    | [ b; e; a ] -> (b, e, a)
    | _ -> assert false
  in
  let spans =
    match e.Svc.e_trace with Some t -> A.spans_of_trace t | None -> [||]
  in
  (* ops: session verbs of the timed mix — each session's load and
     first (warm-up) recompose are set-up *)
  let seen = Hashtbl.create 16 in
  let session_of (s : A.span) =
    match List.assoc_opt "session" s.A.args with
    | Some (Mbr_obs.Json.Str x) -> x
    | _ -> ""
  in
  let mix = Array.make (Array.length spans) false in
  Array.iteri
    (fun i (s : A.span) ->
      match s.A.name with
      | "svc.perturb" -> mix.(i) <- true
      | "svc.recompose" ->
        let k = session_of s in
        if Hashtbl.mem seen k then mix.(i) <- true else Hashtbl.replace seen k ()
      | _ -> ())
    spans;
  let sm = Layers.from_spans ~is_op:(fun i _ -> mix.(i)) spans in
  let d = e.Svc.e_metrics_delta in
  let ops = List.length e.Svc.e_rtts in
  let by_verb v =
    List.filter_map (fun (verb, s) -> if verb = v then Some s else None) e.Svc.e_rtts
  in
  let mean_ms l = if l = [] then 0.0 else 1000.0 *. List.fold_left ( +. ) 0.0 l /. float (List.length l) in
  let server v =
    match
      List.assoc_opt
        (Metrics.series_name "svc.latency_s" [ ("verb", v) ])
        d.Metrics.histograms
    with
    | Some h when h.Metrics.count > 0 -> (h.Metrics.sum, h.Metrics.count)
    | _ -> (0.0, 0)
  in
  let exec_s v =
    let t = ref 0.0 in
    Array.iteri (fun i s -> if mix.(i) && s.A.name = "svc." ^ v then t := !t +. A.dur_us s) spans;
    !t *. 1e-6
  in
  let session_verbs = [ "perturb"; "recompose" ] in
  let per_perturb =
    let n = List.length (by_verb "perturb") in
    if n = 0 then 0.0 else exec_s "perturb" /. float n
  in
  let sum_server vs = List.fold_left (fun acc v -> acc +. fst (server v)) 0.0 vs in
  let count_server vs = List.fold_left (fun acc v -> acc + snd (server v)) 0 vs in
  let queue_wait =
    let n = count_server session_verbs in
    if n = 0 then 0.0
    else
      1000.0
      *. (sum_server session_verbs -. List.fold_left (fun acc v -> acc +. exec_s v) 0.0 session_verbs)
      /. float n
  in
  let wire =
    let rtt = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 e.Svc.e_rtts in
    let n = count_server Schema.service_verbs in
    if n = 0 then 0.0 else 1000.0 *. (rtt -. sum_server Schema.service_verbs) /. float n
  in
  let gc k = Option.value (List.assoc_opt k e.Svc.e_gc_delta) ~default:0.0 in
  let per_op x = if ops = 0 then 0.0 else x /. float ops in
  let replayed = e.Svc.e_replay in
  let values =
    sm.Layers.values
    @ Layers.counters_of d
    @ List.map (fun v -> ("service.rtt_ms." ^ v, mean_ms (by_verb v))) Schema.service_verbs
    @ List.map
        (fun v ->
          let s, n = server v in
          ("service.server_ms." ^ v, if n = 0 then 0.0 else 1000.0 *. s /. float n))
        Schema.service_verbs
    @ [
        ( "service.flow_ms",
          let l = e.Svc.e_flows_ms in
          if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float (List.length l) );
        ("service.queue_wait_ms", queue_wait);
        ("service.wire_ms", wire);
        ("svc.exec.queue_depth_max", float e.Svc.e_queue_depth_max);
        (* the daemon publishes collections, not minor words: a minor
           collection empties at most one minor heap *)
        ( "gc.minor_words_per_op",
          per_op (gc "gc.minor_collections" *. float Mbr_util.Runtime.minor_heap_words) );
        ("gc.major_words_per_op", per_op (gc "gc.major_words"));
        ("gc.major_collections", gc "gc.major_collections");
        ("gc.compactions", gc "gc.compactions");
        ("designgen.generate_s", replayed.Svc.r_generate_s);
        ("designgen.perturb_ms", 1000.0 *. per_perturb);
        ("sta.build_s", replayed.Svc.r_build_s);
      ]
  in
  let dropped =
    Option.value (List.assoc_opt "trace.dropped" d.Metrics.counters) ~default:0
  in
  let p50 (ep : Svc.epoch) = A.median (Array.of_list (List.map snd ep.Svc.e_rtts)) *. 1000.0 in
  finish_layers ~attempted:ops ~failed:e.Svc.e_failed ~failures:e.Svc.e_failures
    ~p50s:(p50 before, p50 e, p50 after) ~dropped values sm.Layers.self_us

(* ---- main ---- *)

let () =
  if not (List.mem !workload Schema.workloads) then
    die "--workload must be one of %s" (String.concat ", " Schema.workloads);
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let threads, conns =
    match !workload with
    | "svc_mix" -> (Svc.workers, Svc.connections)
    | _ -> (1, 0)
  in
  if threads > nproc || conns > nproc then
    die "%s needs %d worker threads and %d connections but this host has %d cores"
      !workload threads conns nproc;
  Mbr_util.Runtime.tune ();
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "provenance %s\n%!" (Mbr_obs.Json.to_string (provenance ()));
  match (!workload, !trace) with
  | "svc_mix", 0 ->
    finish_e2e (of_epochs (svc_epochs_run ~sampled:false (List.init svc_epochs (fun _ -> false))))
  | "svc_mix", _ -> svc_layers ()
  | _, 0 -> finish_e2e (of_run (run_in_process ()))
  | _, _ -> in_process_layers ()
