module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Legalizer = Mbr_place.Legalizer
module Engine = Mbr_sta.Engine
module Skew = Mbr_sta.Skew
module Cell_lib = Mbr_liberty.Cell

type options = {
  allocate : Allocate.config;
  mode : [ `Ilp | `Greedy_share | `Clique ];
  jobs : int option;
  skew : Skew.config option;
  resize : bool;
  decompose : bool;
  corners : Mbr_sta.Corner.t array;
  recover : int;
}

let default_options =
  {
    allocate = Allocate.default_config;
    mode = `Ilp;
    jobs = None;
    skew = Some Skew.default_config;
    resize = true;
    decompose = false;
    corners = Mbr_sta.Corner.default;
    recover = 0;
  }

type result = {
  before : Metrics.t;
  after : Metrics.t;
  n_split : int;
  n_merges : int;
  n_regs_merged : int;
  n_incomplete : int;
  n_resized : int;
  ilp_cost : float;
  n_blocks : int;
  n_candidates : int;
  all_optimal : bool;
  alloc_jobs : int;
  alloc_block_times : Allocate.time_stats;
  skew_report : Skew.report option;
  new_mbrs : Mbr_netlist.Types.cell_id list;
  runtime_s : float;
  stage_times : (string * float) list;
  sta_full_builds : int;
  sta_refreshes : int;
  eco_blocks_resolved : int;
  eco_blocks_reused : int;
  recover_rounds : int;
  recover_splits : int;
  cancelled : bool;
}

type progress = {
  pr_stage : string;
  pr_round : int;
  pr_blocks_resolved : int;
  pr_blocks_total : int;
  pr_wns : float;
}

(* Everything the stage functions share: the run's inputs, the one STA
   engine, the stage-time accumulator (reversed; execution order is
   restored when the result is assembled), and the progress state the
   notify callback reports — updated by the stages that learn
   something (allocate: block counts; the metrics passes: WNS). *)
type context = {
  options : options;
  placement : Placement.t;
  library : Mbr_liberty.Library.t;
  eng : Engine.t;
  metrics : Metrics.state;
  mutable stage_times_rev : (string * float) list;
  notify : (progress -> unit) option;
  mutable pg_round : int;
  mutable pg_resolved : int;
  mutable pg_total : int;
  mutable pg_wns : float;  (* nan until a metrics pass has run *)
}

(* Every stage is a trace span; the per-stage duration recorded in
   [stage_times] is the span's own (monotonic) duration, so the result
   and an exported Chrome trace can never disagree. Entering a stage
   is also the progress heartbeat: the callback fires before the
   stage's work, so a long allocate is announced when it starts, not
   when it ends. *)
let stage ctx name f =
  (match ctx.notify with
  | Some cb ->
    cb
      {
        pr_stage = name;
        pr_round = ctx.pg_round;
        pr_blocks_resolved = ctx.pg_resolved;
        pr_blocks_total = ctx.pg_total;
        pr_wns = ctx.pg_wns;
      }
  | None -> ());
  let r, dt = Mbr_obs.Trace.timed_span ~name f in
  ctx.stage_times_rev <- (name, dt) :: ctx.stage_times_rev;
  r

let m_recomposes = Mbr_obs.Metrics.counter "flow.recomposes"

let m_recover_rounds = Mbr_obs.Metrics.counter "flow.recover_rounds"

(* Worker domains for the allocate fan-out ([Session.create] rejects
   a count below 1). *)
let jobs options = Option.value options.jobs ~default:1

(* Find a legal spot for the mapped cell, preferring the LP optimum
   inside the feasible region, then widening the search. *)
let legalize_merge occ ~(cell : Cell_lib.t) ~region ~desired =
  let w = cell.Cell_lib.width and h = cell.Cell_lib.height in
  let grown = Rect.expand region (Float.max w h) in
  let try_region r = Legalizer.Occupancy.find_nearest occ ?region:r ~w desired in
  match try_region (Some region) with
  | Some p -> Some p
  | None -> (
    match try_region (Some grown) with
    | Some p -> Some p
    | None -> try_region None)

(* ---- stages, in Fig. 4 order ---- *)

type merge_outcome = {
  mo_new_mbrs : Mbr_netlist.Types.cell_id list;  (** in creation order *)
  mo_n_incomplete : int;
  mo_n_regs_merged : int;
}

let execute_one_merge ctx occ infos (c : Candidate.t) outcome =
  let placement = ctx.placement in
  let members = c.Candidate.member_cids in
  match
    Mapping.for_members ctx.library infos ~members:c.Candidate.members
      ~target_bits:c.Candidate.target_bits
  with
  | None -> outcome (* no cell (cannot happen for enumerated candidates) *)
  | Some cell -> (
    (* free the members' sites first: the best MBR spot usually is
       where its registers were *)
    List.iter
      (fun cid ->
        if Placement.is_placed placement cid then
          Legalizer.Occupancy.remove occ (Placement.footprint placement cid))
      members;
    let assignment = Compose.bit_assignment placement members in
    let conns =
      Mbr_placer.conn_boxes placement ~cell ~assignment ~exclude:members
    in
    let desired, _ =
      Mbr_placer.optimal_corner ~cell ~conns ~region:c.Candidate.region
    in
    match legalize_merge occ ~cell ~region:c.Candidate.region ~desired with
    | Some corner ->
      let id =
        Compose.execute placement { Compose.member_cids = members; cell; corner }
      in
      Legalizer.Occupancy.add occ (Placement.footprint placement id);
      {
        mo_new_mbrs = id :: outcome.mo_new_mbrs;
        mo_n_incomplete =
          (outcome.mo_n_incomplete + if c.Candidate.incomplete then 1 else 0);
        mo_n_regs_merged = outcome.mo_n_regs_merged + List.length members;
      }
    | None ->
      (* nowhere to put it: abandon the merge, restore occupancy *)
      List.iter
        (fun cid ->
          if Placement.is_placed placement cid then
            Legalizer.Occupancy.add occ (Placement.footprint placement cid))
        members;
      outcome)

let stage_merge ctx graph (selection : Allocate.selection) =
  stage ctx "merge" (fun () ->
      let occ = Legalizer.Occupancy.of_placement ctx.placement in
      let infos = graph.Compat.infos in
      let outcome =
        List.fold_left
          (fun acc c -> execute_one_merge ctx occ infos c acc)
          { mo_new_mbrs = []; mo_n_incomplete = 0; mo_n_regs_merged = 0 }
          selection.Allocate.merges
      in
      { outcome with mo_new_mbrs = List.rev outcome.mo_new_mbrs })

(* Re-stitch the scan chains the composition broke: removed members
   leave dangling SI/SO hops, and new MBRs need threading (§2's scan
   rules guaranteed this stays possible). No-op without scan cells. *)
let stage_scan_restitch ctx =
  stage ctx "scan-restitch" (fun () ->
      ignore (Mbr_dft.Scan_stitch.stitch ctx.placement))

(* splice the merge/scan edits into the timing graph, then useful
   skew + sizing; skews live in the engine so they carry through *)
let stage_skew ctx ?cancel () =
  stage ctx "skew" (fun () ->
      match ctx.options.skew with
      | Some cfg ->
        Some (Skew.optimize ~config:cfg ?cancel ctx.eng)
      | None ->
        Engine.refresh ctx.eng;
        None)

let stage_resize ctx new_mbrs =
  stage ctx "resize" (fun () ->
      if ctx.options.resize then Resize.downsize ctx.eng ctx.library new_mbrs
      else 0)

(* A Table 1 snapshot: "metrics-before" or "metrics-after". The
   refresh inside the pass absorbs whatever moved since the last one
   (after resize: the retyped pin caps), and the session's metrics
   state re-sweeps only the nets whose stamps moved since the previous
   snapshot, with the fields a fresh sweep would give. *)
let stage_metrics ctx name =
  stage ctx name (fun () -> Metrics.collect ctx.metrics ctx.eng ctx.library)

module Session = struct
  type s = {
    options : options;
    design : Design.t;
    placement : Placement.t;
    library : Mbr_liberty.Library.t;
    eng : Engine.t;
    metrics : Metrics.state;
        (** per-net route and power work, carried from one snapshot to
            the next *)
    cache : Allocate.cache;
    mutable graph : Compat.graph;
        (** last compat-graph pass's graph; {!Compat.empty} before the
            first *)
    mutable n_recomposes : int;
    mutable last_compat_stats : Compat.refresh_stats option;
    owner : int Atomic.t;
        (** domain id currently holding the session, [-1] when unowned;
            the single-writer gate every recompose passes through *)
  }

  type t = s

  let create ?(options = default_options) ~design ~placement ~library
      ~sta_config () =
    if Placement.design placement != design then
      invalid_arg
        "Flow.Session.create: placement does not belong to the given design";
    if jobs options < 1 then invalid_arg "Flow.Session.create: jobs < 1";
    (* The session's one full graph construction and analysis: every
       stage of every recompose brings this same engine up to date
       through Engine.refresh, which consumes the design/placement edit
       logs instead of rebuilding. *)
    {
      options;
      design;
      placement;
      library;
      eng = Engine.build ~config:sta_config ~corners:options.corners placement;
      metrics = Metrics.create_state placement;
      cache = Allocate.create_cache ();
      graph = Compat.empty;
      n_recomposes = 0;
      last_compat_stats = None;
      owner = Atomic.make (-1);
    }

  let design s = s.design

  let placement s = s.placement

  let engine s = s.eng

  let recomposes s = s.n_recomposes

  let last_compat_stats s = s.last_compat_stats

  let set_corners s cs = Engine.set_corners s.eng cs

  (* ---- ownership: the single-writer discipline ----

     A session is one mutable value (engine, graph, caches, cursors,
     edit-log positions) with no internal locking; correctness comes
     from at most one domain driving it at a time. The owner field
     makes that discipline explicit and checkable: acquisition is a
     CAS from -1 to the acquiring domain's id, so two domains can
     never both believe they hold the same session, and a session is
     movable — release on one domain, acquire on another, nothing in
     the state pins it to where it was created. *)

  let self_id () = (Domain.self () :> int)

  let try_acquire s =
    let me = self_id () in
    Atomic.get s.owner = me || Atomic.compare_and_set s.owner (-1) me

  let acquire s =
    if not (try_acquire s) then
      invalid_arg
        (Printf.sprintf
           "Flow.Session.acquire: session is owned by domain %d (self: %d)"
           (Atomic.get s.owner) (self_id ()))

  let release s =
    if not (Atomic.compare_and_set s.owner (self_id ()) (-1)) then
      invalid_arg "Flow.Session.release: session not owned by this domain"

  let owner_id s = match Atomic.get s.owner with -1 -> None | d -> Some d

  let live_register dsg cid =
    let c = Design.cell dsg cid in
    (not c.Mbr_netlist.Types.c_dead)
    &&
    match c.Mbr_netlist.Types.c_kind with
    | Mbr_netlist.Types.Register _ -> true
    | _ -> false

  (* Absorb the ECO and return the engine to the neutral clock tree: a
     from-scratch run starts with zero useful skew everywhere, so a
     recompose must too. Structural edits are absorbed first (the
     supported refresh path); zeroing then patches only the affected
     cones. Skew entries of registers an ECO removed are skipped —
     their pins detach from the timing graph and contribute to no
     endpoint. On a from-scratch run the engine is analyzed and
     skewless already, so the stage does no timing work. *)
  let stage_eco_reset ctx s =
    stage ctx "eco-reset" (fun () ->
        Engine.refresh s.eng;
        match
          List.filter_map
            (fun (cid, _) ->
              if live_register s.design cid then Some (cid, 0.0) else None)
            (Engine.skew_assignments s.eng)
        with
        | [] -> ()
        | zeros -> Engine.update_skews s.eng zeros)

  (* Against the previous pass's graph ({!Compat.empty} on the first),
     so only pairs touching a changed register are re-checked. *)
  let stage_graph ctx s =
    stage ctx "compat-graph" (fun () ->
        let g, stats =
          Compat.refresh s.graph s.eng s.library
        in
        s.graph <- g;
        s.last_compat_stats <- Some stats;
        g)

  (* The blocker population is every live placed register's center
     (§3.2 counts any register inside a test polygon), indexed afresh
     each pass. *)
  let stage_blocker_index ctx s =
    stage ctx "blocker-index" (fun () ->
        let index = Spatial.create () in
        List.iter
          (fun cid ->
            if Placement.is_placed s.placement cid then
              Spatial.add index cid (Placement.center s.placement cid))
          (Design.registers s.design);
        index)

  let stage_allocate ctx s ?cancel graph blocker_index =
    stage ctx "allocate" (fun () ->
        Allocate.run_cached ~mode:s.options.mode ~config:s.options.allocate
          ~jobs:(jobs s.options) ?cancel s.cache graph ~lib:s.library
          ~blocker_index)

  (* What one pass of the composition core produced. *)
  type pass = {
    p_split : int;  (** cells the pass's decompose stage split *)
    p_selection : Allocate.selection;
    p_cache : Allocate.cache_stats;
    p_merged : merge_outcome;
    p_skew : Skew.report option;
    p_resized : int;
    p_after : Metrics.t;
  }

  (* One pass of Fig. 4 from the decompose stage on: [decompose] runs
     as that stage and returns how many cells it split, then the
     pipeline runs from the compat graph to metrics-after. The main
     pass and every recovery round are this function; the session's
     incrementality keeps a recovery round regional (only blocks the
     splits dirtied are re-solved, only touched cones re-timed). *)
  let compose_pass ctx s ?cancel decompose =
    let p_split = stage ctx "decompose" decompose in
    let graph = stage_graph ctx s in
    let blocker_index = stage_blocker_index ctx s in
    let p_selection, p_cache = stage_allocate ctx s ?cancel graph blocker_index in
    ctx.pg_resolved <- ctx.pg_resolved + p_cache.Allocate.blocks_resolved;
    ctx.pg_total <- ctx.pg_total + p_selection.Allocate.n_blocks;
    let p_merged = stage_merge ctx graph p_selection in
    stage_scan_restitch ctx;
    let p_skew = stage_skew ctx ?cancel () in
    let p_resized = stage_resize ctx p_merged.mo_new_mbrs in
    let p_after = stage_metrics ctx "metrics-after" in
    ctx.pg_wns <- p_after.Metrics.wns;
    {
      p_split;
      p_selection;
      p_cache;
      p_merged;
      p_skew;
      p_resized;
      p_after;
    }

  (* The whole pass runs under one ["flow.recompose"] span whose
     duration IS [runtime_s] — the stage spans nest inside it, so the
     exported trace accounts for the run's wall time with no second
     clock involved. *)
  let recompose ?cancel ?recover ?on_progress s =
    (* Single-writer gate. A caller that already holds the session
       keeps it; an unowned session is claimed for just this call
       (which is what keeps plain single-threaded usage ceremony-free);
       a session held by another domain is a caller bug. *)
    let me = self_id () in
    let transient = Atomic.get s.owner <> me in
    if transient && not (Atomic.compare_and_set s.owner (-1) me) then
      invalid_arg
        (Printf.sprintf
           "Flow.Session.recompose: session is owned by domain %d (self: %d)"
           (Atomic.get s.owner) me);
    Fun.protect ~finally:(fun () ->
        if transient then ignore (Atomic.compare_and_set s.owner me (-1)))
    @@ fun () ->
    let result, runtime_s =
      Mbr_obs.Trace.timed_span ~name:"flow.recompose"
        ~args:[ ("round", Mbr_obs.Trace.Int s.n_recomposes) ]
      @@ fun () ->
      let ctx =
        {
          options = s.options;
          placement = s.placement;
          library = s.library;
          eng = s.eng;
          metrics = s.metrics;
          stage_times_rev = [];
          notify = on_progress;
          pg_round = 0;
          pg_resolved = 0;
          pg_total = 0;
          pg_wns = Float.nan;
        }
      in
      stage_eco_reset ctx s;
      let before = stage_metrics ctx "metrics-before" in
      ctx.pg_wns <- before.Metrics.wns;
      (* optional pre-pass: open up max-width MBRs for recomposition *)
      let main =
        compose_pass ctx s ?cancel (fun () ->
            if s.options.decompose then begin
              let report = Decompose.split_max_width s.placement s.library in
              Engine.refresh s.eng;
              report.Decompose.n_split
            end
            else 0)
      in
      (* ---- recovery loop: worst-corner-negative MBRs go back through
         decompose → (partition → allocate → compose) until every MBR
         this pass created is clean or the round budget runs out ---- *)
      let budget =
        match recover with Some r -> max 0 r | None -> s.options.recover
      in
      (* Victims are a function of design + placement + timing state
         alone, never of session history: a from-scratch [run] over the
         same state must reach the same recovery decisions (the
         equivalence property). Any live register {!Decompose.splittable}
         would actually split — composed this pass, by an earlier
         recompose (a set-corners in between can turn those into
         victims), or multi-bit in the input — qualifies when its worst
         corner goes negative. Splittability guarantees every round
         makes >= 1 split, so rounds are never spent on unsplittable
         violators. *)
      let victims () =
        List.filter
          (fun cid ->
            live_register s.design cid
            && Decompose.splittable s.placement s.library cid
            &&
            let sl =
              Float.min
                (Engine.reg_d_slack s.eng cid)
                (Engine.reg_q_slack s.eng cid)
            in
            Float.is_finite sl && sl < 0.0)
          (Design.registers s.design)
      in
      let cancelled () =
        match cancel with Some t -> Mbr_util.Cancel.cancelled t | None -> false
      in
      (* One recovery round: decompose the victims, pinning the halves
         so they can never re-compose — that monotonicity is what
         bounds the loop. *)
      let rec recovery round =
        if round > budget || cancelled () then []
        else
          match victims () with
          | [] -> []
          | victims ->
            Mbr_obs.Metrics.incr m_recover_rounds;
            let pass =
              Mbr_obs.Trace.with_span ~name:"flow.recover"
                ~args:
                  [
                    ("round", Mbr_obs.Trace.Int round);
                    ("victims", Mbr_obs.Trace.Int (List.length victims));
                  ]
              @@ fun () ->
              ctx.pg_round <- round;
              compose_pass ctx s ?cancel (fun () ->
                  let report =
                    Decompose.split_cells ~pin:true s.placement s.library
                      victims
                  in
                  Engine.refresh s.eng;
                  report.Decompose.n_split)
            in
            pass :: recovery (round + 1)
      in
      let rounds = recovery 1 in
      let passes = main :: rounds in
      let last = List.fold_left (fun _ p -> p) main rounds in
      let count f = List.fold_left (fun acc p -> acc + f p) 0 passes in
      (* float totals add in pass order, seeded with the main pass *)
      let total f = List.fold_left (fun acc p -> acc +. f p) (f main) rounds in
      (* dead (split) ids drop out through the liveness filter on
         [new_mbrs], so appending every pass's MBRs is enough *)
      let mbrs = List.concat_map (fun p -> p.p_merged.mo_new_mbrs) passes in
      s.n_recomposes <- s.n_recomposes + 1;
      Mbr_obs.Metrics.incr m_recomposes;
      {
        before;
        after = last.p_after;
        n_split = main.p_split;
        n_merges = List.length mbrs;
        n_regs_merged = count (fun p -> p.p_merged.mo_n_regs_merged);
        n_incomplete = count (fun p -> p.p_merged.mo_n_incomplete);
        n_resized = count (fun p -> p.p_resized);
        ilp_cost = total (fun p -> p.p_selection.Allocate.cost);
        n_blocks = count (fun p -> p.p_selection.Allocate.n_blocks);
        n_candidates = count (fun p -> p.p_selection.Allocate.n_candidates);
        all_optimal =
          List.for_all (fun p -> p.p_selection.Allocate.all_optimal) passes;
        alloc_jobs = jobs s.options;
        alloc_block_times = main.p_selection.Allocate.block_times;
        skew_report = last.p_skew;
        new_mbrs = List.filter (live_register s.design) mbrs;
        runtime_s = 0.0 (* patched below from the span's duration *);
        stage_times = List.rev ctx.stage_times_rev;
        sta_full_builds = Engine.full_builds s.eng;
        sta_refreshes = Engine.refreshes s.eng;
        eco_blocks_resolved =
          count (fun p -> p.p_cache.Allocate.blocks_resolved);
        eco_blocks_reused = count (fun p -> p.p_cache.Allocate.blocks_reused);
        recover_rounds = List.length rounds;
        recover_splits =
          List.fold_left (fun acc p -> acc + p.p_split) 0 rounds;
        cancelled = cancelled ();
      }
    in
    { result with runtime_s }
end

let run ?(options = default_options) ~design ~placement ~library ~sta_config ()
    =
  if Placement.design placement != design then
    invalid_arg "Flow.run: placement does not belong to the given design";
  Session.recompose
    (Session.create ~options ~design ~placement ~library ~sta_config ())
