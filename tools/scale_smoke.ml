(* Large-scale smoke check for CI: generate a scaled D1 profile, run
   the full composition flow serially (jobs = 1) and fail loudly if
   wall time or peak RSS blow past the ceilings.

   The point is not a benchmark — BENCH.json owns the numbers — but a
   regression tripwire for the memory-and-scaling work: a quadratic
   slip in the compat graph, candidate enumeration or the STA engine
   turns a ~25 s run into minutes, and a per-pair materialization
   turns ~600 MB into many GB. The ceilings carry generous headroom
   over the measured scale-8 footprint (flow + generate ~26 s, peak
   RSS ~580 MB on a loaded 1-core host) so the check survives machine
   noise while still catching complexity-class regressions.

   The skew stage gets its own ceiling: it used to dominate large runs
   (convergence-driven per-register cone chasing), and the batched
   scans over the propagation plan are exactly the kind of win a quadratic slip
   would silently undo while hiding inside the total wall headroom.

   The QoR metrics passes (metrics-before + metrics-after, ~0.8 s at
   scale 8 on a 2-vCPU host) get one too, with the same ~10x
   headroom: the single net sweep behind them sorts every net's pin
   coordinates, and the reset and scan-enable nets grow with scale, so
   a sort or pin walk that slips a complexity class shows up here
   first.

   The flow runs as Session.create + recompose (what Flow.run is), and
   the same session then takes one default ECO batch and a second
   recompose. That round must stay incremental all the way down: each
   incremental STA refresh patches the propagation plan once, at the
   pins its splice touched, and the skew sweeps and metrics reuse it,
   so the check fails on any full plan build during the round and on
   more plan patches than incremental refreshes. Nor may the STA graph
   itself be rebuilt after Session.create builds it: a splice that fell
   back to a rebuild would still give bit-exact timing, so no
   equivalence test notices, and the check fails when the session's
   full-build count ends above 1. Nor may the round grow the net
   table beyond the new scan chain drivers: scan restitching keeps
   every hop net whose driver survives and mints one only for a
   scan-out pin without a net, so the check fails when the round's
   recompose adds more nets than the round (the ECO batch and the
   recompose) created scan-out pins. Nor may the round's two metrics
   snapshots fall back to full sweeps: the session's metrics state
   re-sweeps only the nets whose placement stamps moved, and a full
   sweep would give the same bits, so the check reads the
   [metrics.nets_swept] counter over the round and fails when the two
   snapshots together re-swept at least as many nets as the design
   has. Nor may a refresh flag most pins: each seeds its scans and
   patches its plan at the pins its splice touched, and a splice that
   flagged them all would still be bit-exact, so the check traces the
   round, reads each incremental refresh's [dirty_pins] off the end of
   its [sta.refresh] span, and fails when a single refresh flagged at
   least half the design's pins. Nor may a patch rewrite most of the
   plan: a patch rewrites in place the pred, succ and start/endpoint
   rows of the pins its refresh flagged, and one that copied the whole
   plan would still be bit-exact, so the check reads each
   [sta.plan.patch] span's [rows] and fails when a single patch wrote
   rows for at least half the design's pins; it prints the round's
   [sta.plan.rows_patched] total. These are counts, not timings;
   the round's eco-reset, compat-graph, allocate, skew, scan-restitch
   and metrics stage times,
   the net count, and Session.create's wall time (the engine build and
   its initial analysis), are printed for the log.

   Usage: scale_smoke.exe [SCALE] [WALL_CEILING_S] [RSS_CEILING_MB]
            [SKEW_CEILING_S] [METRICS_CEILING_S]
   Defaults: 8.0, 180 s, 2048 MB, 20 s, 8 s. *)

module P = Mbr_designgen.Profile
module G = Mbr_designgen.Generate
module Flow = Mbr_core.Flow
module Engine = Mbr_sta.Engine
module Design = Mbr_netlist.Design

let () =
  Mbr_util.Runtime.tune ();
  let arg i default =
    if Array.length Sys.argv > i then float_of_string Sys.argv.(i) else default
  in
  let scale = arg 1 8.0 in
  let wall_ceiling = arg 2 180.0 in
  let rss_ceiling = arg 3 2048.0 in
  let skew_ceiling = arg 4 20.0 in
  let metrics_ceiling = arg 5 8.0 in
  let p = P.scaled P.d1 scale in
  Printf.printf "scale-smoke: scale %.1f (%d registers), jobs 1\n%!" scale
    p.P.n_registers;
  let t0 = Unix.gettimeofday () in
  let g = G.generate p in
  let t_create = Unix.gettimeofday () in
  let session =
    Flow.Session.create ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let create_s = Unix.gettimeofday () -. t_create in
  let r = Flow.Session.recompose session in
  let wall = Unix.gettimeofday () -. t0 in
  let rss = Mbr_obs.Rss.peak_mb () in
  Printf.printf
    "scale-smoke: wall %.1f s (flow %.1f s), merges %d, peak rss %s\n%!" wall
    r.Flow.runtime_s r.Flow.n_merges
    (match rss with Some m -> Printf.sprintf "%.0f MB" m | None -> "n/a");
  let stage_s (r : Flow.result) name =
    match List.assoc_opt name r.Flow.stage_times with
    | Some s -> s
    | None -> 0.0
  in
  let skew_s = stage_s r "skew" in
  let metrics_s = stage_s r "metrics-before" +. stage_s r "metrics-after" in
  Printf.printf
    "scale-smoke: Session.create %.2f s, skew stage %.2f s, metrics stages \
     %.2f s\n%!"
    create_s skew_s metrics_s;
  (* one ECO round on the same session *)
  let dsg = g.G.design in
  let pins0 = Design.n_pins dsg in
  ignore (Mbr_designgen.Eco.perturb (Mbr_util.Rng.create 1) g);
  let eng = Flow.Session.engine session in
  let builds0 = Engine.plan_builds eng and patches0 = Engine.plan_patches eng in
  let refreshes0 = Engine.refreshes eng in
  let nets0 = Design.n_nets dsg in
  (* the registry is off until here, so the first flow runs as mbrc's
     does *)
  Mbr_obs.Metrics.enable ();
  let swept = Mbr_obs.Metrics.counter "metrics.nets_swept" in
  let swept0 = Mbr_obs.Metrics.counter_value swept in
  let dirty = Mbr_obs.Metrics.counter "sta.dirty_pins" in
  let dirty0 = Mbr_obs.Metrics.counter_value dirty in
  let rows = Mbr_obs.Metrics.counter "sta.plan.rows_patched" in
  let rows0 = Mbr_obs.Metrics.counter_value rows in
  Mbr_obs.Trace.enable ();
  let eco = Flow.Session.recompose session in
  Mbr_obs.Trace.disable ();
  let eco_swept = Mbr_obs.Metrics.counter_value swept - swept0 in
  let eco_dirty = Mbr_obs.Metrics.counter_value dirty - dirty0 in
  let eco_rows = Mbr_obs.Metrics.counter_value rows - rows0 in
  (* per refresh and per patch, off the round's trace: an incremental
     refresh's end event carries its dirty pins, a patch's its rows *)
  let end_args name key =
    let module J = Mbr_obs.Json in
    let events =
      Option.value ~default:[]
        (Option.bind (J.member "traceEvents" (Mbr_obs.Trace.export ())) J.to_list)
    in
    List.filter_map
      (fun e ->
        let str k = Option.bind (J.member k e) J.to_str in
        if str "name" = Some name && str "ph" = Some "E" then
          Option.bind (J.member "args" e) (fun a ->
              Option.bind (J.member key a) J.to_int)
        else None)
      events
  in
  let refresh_dirty = end_args "sta.refresh" "dirty_pins" in
  let patch_rows = end_args "sta.plan.patch" "rows" in
  let max_of = List.fold_left max 0 in
  let eco_builds = Engine.plan_builds eng - builds0 in
  let eco_patches = Engine.plan_patches eng - patches0 in
  let eco_refreshes = Engine.refreshes eng - refreshes0 in
  let eco_nets = Design.n_nets dsg - nets0 in
  let new_so = ref 0 in
  for pid = pins0 to Design.n_pins dsg - 1 do
    match (Design.pin dsg pid).Mbr_netlist.Types.p_kind with
    | Mbr_netlist.Types.Pin_scan_out _ -> incr new_so
    | _ -> ()
  done;
  let eco_metrics_s = stage_s eco "metrics-before" +. stage_s eco "metrics-after" in
  let n_pins = Design.n_pins dsg in
  Printf.printf
    "scale-smoke: eco round: eco-reset %.2f s, compat-graph %.3f s, \
     allocate %.3f s, skew %.2f s, scan-restitch %.3f s, metrics %.3f s \
     (nets swept %d of %d), plan builds %d, patches \
     %d (rows %d, at most %d in one), refreshes %d (dirty pins %d of %d, at \
     most %d in one); STA full builds %d; nets %d (+%d for %d new scan-out \
     pins)\n%!"
    (stage_s eco "eco-reset") (stage_s eco "compat-graph")
    (stage_s eco "allocate") (stage_s eco "skew") (stage_s eco "scan-restitch")
    eco_metrics_s eco_swept (Design.n_nets dsg) eco_builds eco_patches eco_rows
    (max_of patch_rows) eco_refreshes eco_dirty n_pins (max_of refresh_dirty)
    eco.Flow.sta_full_builds (Design.n_nets dsg) eco_nets !new_so;
  let failed = ref false in
  if
    List.length refresh_dirty <> eco_refreshes
    || List.length patch_rows <> eco_patches
  then begin
    Printf.printf
      "scale-smoke: FAIL the round's trace holds %d refresh and %d patch \
       counts for %d incremental refreshes and %d patches (trace events \
       dropped: %d)\n%!"
      (List.length refresh_dirty) (List.length patch_rows) eco_refreshes
      eco_patches (Mbr_obs.Trace.dropped_events ());
    failed := true
  end;
  if 2 * max_of refresh_dirty >= n_pins then begin
    Printf.printf
      "scale-smoke: FAIL an eco-round STA refresh flagged %d pins of %d; \
       each may flag only the pins its splice touched\n%!"
      (max_of refresh_dirty) n_pins;
    failed := true
  end;
  if 2 * max_of patch_rows >= n_pins then begin
    Printf.printf
      "scale-smoke: FAIL an eco-round STA plan patch wrote %d rows for a \
       design of %d pins; each may rewrite only the rows of the pins its \
       refresh flagged\n%!"
      (max_of patch_rows) n_pins;
    failed := true
  end;
  if eco_swept >= Design.n_nets dsg then begin
    Printf.printf
      "scale-smoke: FAIL eco round's metrics snapshots re-swept %d nets of \
       %d; each may re-sweep only the nets whose stamps moved\n%!"
      eco_swept (Design.n_nets dsg);
    failed := true
  end;
  if eco_nets > !new_so then begin
    Printf.printf
      "scale-smoke: FAIL eco round's recompose added %d nets for %d new \
       scan-out pins; restitching may mint a net only for a scan-out pin \
       without one\n%!"
      eco_nets !new_so;
    failed := true
  end;
  if eco.Flow.sta_full_builds > 1 then begin
    Printf.printf
      "scale-smoke: FAIL the session built the STA graph %d times; only \
       Session.create may build it, every later refresh must splice\n%!"
      eco.Flow.sta_full_builds;
    failed := true
  end;
  if eco_builds > 0 then begin
    Printf.printf
      "scale-smoke: FAIL eco round built the STA propagation plan from \
       scratch %d time(s); it must only patch it\n%!"
      eco_builds;
    failed := true
  end;
  if eco_patches > eco_refreshes then begin
    Printf.printf
      "scale-smoke: FAIL eco round patched the STA propagation plan %d \
       time(s) over %d incremental refresh(es); each refresh patches it \
       once and nothing else may\n%!"
      eco_patches eco_refreshes;
    failed := true
  end;
  if skew_s > skew_ceiling then begin
    Printf.printf "scale-smoke: FAIL skew stage %.2f s > ceiling %.0f s\n%!"
      skew_s skew_ceiling;
    failed := true
  end;
  if metrics_s > metrics_ceiling then begin
    Printf.printf
      "scale-smoke: FAIL metrics stages %.2f s > ceiling %.0f s\n%!"
      metrics_s metrics_ceiling;
    failed := true
  end;
  if wall > wall_ceiling then begin
    Printf.printf "scale-smoke: FAIL wall %.1f s > ceiling %.0f s\n%!" wall
      wall_ceiling;
    failed := true
  end;
  (match rss with
  | Some m when m > rss_ceiling ->
    Printf.printf "scale-smoke: FAIL peak rss %.0f MB > ceiling %.0f MB\n%!" m
      rss_ceiling;
    failed := true
  | Some _ -> ()
  | None ->
    (* no /proc/self/status (non-Linux): wall ceiling still applies *)
    print_endline "scale-smoke: rss unavailable, skipping memory check");
  if r.Mbr_core.Flow.n_merges = 0 then begin
    print_endline "scale-smoke: FAIL flow produced no merges";
    failed := true
  end;
  if !failed then exit 1;
  print_endline "scale-smoke: ok"
