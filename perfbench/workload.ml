(* The in-process workloads, compose_mix and eco_d1, driven through the
   layers' public entry points: Generate.generate, Eco.perturb,
   Flow.Session.create / recompose and Flow.run. *)

module Flow = Mbr_core.Flow
module CM = Mbr_core.Metrics
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng
module Trace = Mbr_obs.Trace
module Clock = Mbr_obs.Clock

(* ---- results ---- *)

type qor = { regs : int; clk_cap : float; tns : float; wl : float }

let qor0 = { regs = 0; clk_cap = 0.0; tns = 0.0; wl = 0.0 }

let add_after q (m : CM.t) =
  {
    regs = q.regs + m.CM.total_regs;
    clk_cap = q.clk_cap +. m.CM.clk_cap;
    tns = q.tns +. m.CM.tns;
    wl = q.wl +. m.CM.other_wl;
  }

type gc = {
  minor_words : float;
  major_words : float;
  major_collections : int;
  compactions : int;
}

let gc0 = { minor_words = 0.0; major_words = 0.0; major_collections = 0; compactions = 0 }

(* Every wall time comes twice: as measured, and scaled to the
   reference host's speed by the probe around it (see Probe). *)
type run = {
  latencies_s : float array;  (** one per attempted op, in op order *)
  scaled_s : float array;  (** the same, probe-scaled *)
  failed : int;
  failures : string list;  (** what each failed check said *)
  segments : (int * float * float) array;
      (** (ops, summed wall, summed scaled wall) of each timed segment:
          a rotation or an episode *)
  setup_s : float array;  (** one sample per set-up repetition *)
  setup_scaled_s : float array;
  qor : qor;
  peak_rss_mb : float;
      (** VmHWM, read before any output check that builds a second
          session, so it is the peak of the workload itself *)
  gc : gc;  (** quick_stat deltas over the ops *)
  inputs : string;  (** digest of the generated inputs *)
  alloc_blocks : int;
  alloc_candidates : int;
  alloc_block_max_s : float;
}

type acc = {
  mutable lat : (float * float) list;  (** (wall, scaled) per op *)
  mutable segs : (int * float * float) list;
  mutable cur : int * float * float;  (** the open segment *)
  mutable g : gc;
  mutable fails : string list;
  mutable setups : (float * float) list;
  mutable q : qor;
  mutable fp : string list;
  mutable blocks : int;
  mutable cands : int;
  mutable bmax : float;
}

let new_acc () =
  {
    lat = [];
    segs = [];
    cur = (0, 0.0, 0.0);
    g = gc0;
    fails = [];
    setups = [];
    q = qor0;
    fp = [];
    blocks = 0;
    cands = 0;
    bmax = 0.0;
  }

(* A set-up -> timed boundary: the only place the major heap is
   compacted. *)
let boundary () = Gc.compact ()

(* One repetition of a workload's set-up, timed and probed. *)
let setup acc f =
  let (r, dt), k =
    Probe.bracket (fun () ->
        let t0 = Clock.now_s () in
        let r = f () in
        (r, Clock.now_s () -. t0))
  in
  acc.setups <- (dt, dt *. k) :: acc.setups;
  r

let end_segment acc =
  let ops, _, _ = acc.cur in
  if ops > 0 then acc.segs <- acc.cur :: acc.segs;
  acc.cur <- (0, 0.0, 0.0)

(* One op, probed, joining the open segment: its latency is recorded
   whatever happens; an exception counts it failed. *)
let time_op acc ~op f =
  let (r, dt, s0, s1), k =
    Probe.bracket (fun () ->
        let s0 = Gc.quick_stat () in
        let t0 = Clock.now_s () in
        let r =
          try Ok (Trace.with_span ~name:"bench.op" ~args:[ ("op", Trace.Int op) ] f)
          with e -> Error e
        in
        let dt = Clock.now_s () -. t0 in
        (r, dt, s0, Gc.quick_stat ()))
  in
  acc.lat <- (dt, dt *. k) :: acc.lat;
  let ops, wall, scaled = acc.cur in
  acc.cur <- (ops + 1, wall +. dt, scaled +. (dt *. k));
  acc.g <-
    {
      minor_words = acc.g.minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
      major_words = acc.g.major_words +. (s1.Gc.major_words -. s0.Gc.major_words);
      major_collections =
        acc.g.major_collections + (s1.Gc.major_collections - s0.Gc.major_collections);
      compactions = acc.g.compactions + (s1.Gc.compactions - s0.Gc.compactions);
    };
  match r with
  | Ok r -> Some r
  | Error e ->
    acc.fails <- Printf.sprintf "op %d raised %s" op (Printexc.to_string e) :: acc.fails;
    None

let fail acc msg = acc.fails <- msg :: acc.fails

let note_result acc (r : Flow.result) =
  acc.q <- add_after acc.q r.Flow.after;
  acc.blocks <- acc.blocks + r.Flow.n_blocks;
  acc.cands <- acc.cands + r.Flow.n_candidates;
  acc.bmax <- Float.max acc.bmax r.Flow.alloc_block_times.Mbr_core.Allocate.max_s

let peak_rss_mb () = Option.value (Mbr_obs.Rss.peak_mb ()) ~default:0.0

let finish ~rss acc =
  let lat = List.rev acc.lat and setups = List.rev acc.setups in
  {
    latencies_s = Array.of_list (List.map fst lat);
    scaled_s = Array.of_list (List.map snd lat);
    failed = List.length acc.fails;
    failures = List.rev acc.fails;
    segments = Array.of_list (List.rev acc.segs);
    setup_s = Array.of_list (List.map fst setups);
    setup_scaled_s = Array.of_list (List.map snd setups);
    qor = acc.q;
    peak_rss_mb = rss;
    gc = acc.g;
    inputs = Digest.to_hex (Digest.string (String.concat ";" (List.rev acc.fp)));
    alloc_blocks = acc.blocks;
    alloc_candidates = acc.cands;
    alloc_block_max_s = acc.bmax;
  }

let options = { Flow.default_options with Flow.jobs = Some 1 }

let generate ~op profile =
  Trace.with_span ~name:"bench.generate" ~args:[ ("op", Trace.Int op) ]
    (fun () -> G.generate profile)

(* ---- output checks ---- *)

let check_compose ~op (g : G.t) (r : Flow.result) =
  let problems =
    List.map (fun m -> "validate: " ^ m) (Mbr_netlist.Design.validate g.G.design)
    @ List.map (fun m -> "scan: " ^ m) (Mbr_dft.Scan_stitch.verify g.G.design)
    @ (if r.Flow.all_optimal then [] else [ "allocation not proven optimal" ])
    @
    let b = r.Flow.before.CM.total_regs and a = r.Flow.after.CM.total_regs in
    if a = b - r.Flow.n_regs_merged + r.Flow.n_merges then []
    else
      [
        Printf.sprintf "register count %d <> %d - %d + %d" a b
          r.Flow.n_regs_merged r.Flow.n_merges;
      ]
  in
  match problems with
  | [] -> None
  | p :: _ -> Some (Printf.sprintf "op %d (%s): %s" op g.G.profile.P.name p)

(* ---- compose_mix ---- *)

(* One op = Flow.run (spelled Session.create + recompose, which is
   exactly what Flow.run does, so Session.create gets a span of its
   own) on a freshly generated design. The designs form a fixed suite:
   rotation r generates variant r of each of D1..D5 at [scale] (the
   profile's generator seed plus r). The run seed orders the rotations
   and the profiles within each. A rotation is generated (set-up,
   untimed), then its five ops run back to back (timed), then their
   outputs are checked (untimed). *)
let compose_rotation acc ~rng ~profiles ~scale ~base ~variant =
  let order = Array.of_list profiles in
  Rng.shuffle rng order;
  let gens =
    setup acc (fun () ->
        Array.mapi
          (fun i p ->
            let p = P.scaled p scale in
            acc.fp <- Printf.sprintf "%d:%s+%d" (base + i) p.P.name variant :: acc.fp;
            generate ~op:(base + i) { p with P.seed = p.P.seed + variant })
          order)
  in
  boundary ();
  let results =
        Array.mapi
          (fun i (g : G.t) ->
            time_op acc ~op:(base + i) (fun () ->
                let s =
                  Trace.with_span ~name:"bench.session_create"
                    ~args:[ ("op", Trace.Int (base + i)) ]
                    (fun () ->
                      Flow.Session.create ~options ~design:g.G.design
                        ~placement:g.G.placement ~library:g.G.library
                        ~sta_config:g.G.sta_config ())
                in
                Flow.Session.recompose s))
          gens
  in
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some r -> (
        note_result acc r;
        match check_compose ~op:(base + i) gens.(i) r with
        | None -> ()
        | Some msg -> fail acc msg))
    results;
  end_segment acc

let compose_mix ?(profiles = P.all) ~seed ~rotations ~scale () =
  let acc = new_acc () in
  let rng = Rng.create seed in
  let variants = Array.init rotations Fun.id in
  Rng.shuffle rng variants;
  Array.iteri
    (fun rot variant ->
      compose_rotation acc ~rng ~profiles ~scale ~base:(rot * List.length profiles) ~variant)
    variants;
  finish ~rss:(peak_rss_mb ()) acc

(* ---- eco_d1 ---- *)

let close a b =
  a = b || (Float.is_finite a && Float.is_finite b && Float.abs (a -. b) <= 1e-6)

(* The last ECO round of a session against a from-scratch Flow.run on
   an identical copy of the pre-round design, perturbed with the same
   seed (the recompose = from-scratch property of the flow). The copy
   was marshalled to [snapshot]; [got] is the round's (registers, ILP
   cost, WNS, TNS). *)
let check_eco ~op ~snapshot ~eco_seed ~got:(regs, cost, wns, tns) =
  let (copy : G.t) =
    let ic = open_in_bin snapshot in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
  in
  Sys.remove snapshot;
  ignore (Eco.perturb (Rng.create eco_seed) copy);
  let f =
    Flow.run ~options ~design:copy.G.design ~placement:copy.G.placement
      ~library:copy.G.library ~sta_config:copy.G.sta_config ()
  in
  let diffs =
    List.filter_map
      (fun (what, a, b) ->
        if close a b then None else Some (Printf.sprintf "%s %g <> %g" what a b))
      [
        ("regs", regs, float_of_int f.Flow.after.CM.total_regs);
        ("ilp cost", cost, f.Flow.ilp_cost);
        ("wns", wns, f.Flow.after.CM.wns);
        ("tns", tns, f.Flow.after.CM.tns);
      ]
  in
  match diffs with
  | [] -> None
  | d :: _ -> Some (Printf.sprintf "op %d: recompose vs from-scratch: %s" op d)

(* [episodes] sessions of the shipped D1 profile at [scale], one after
   the other. An episode's set-up (generate, create, warm-up compose) is
   one set-up sample; then each of its [rounds] ops is a
   Session.recompose after an untimed default Eco.perturb. Episode e's
   ECO batches are seeded from e, so the suite (and its QoR) is the same
   for every run seed, which orders the episodes. Short episodes keep
   the ECO random walk, and the heap, small.

   The last round of every episode is checked against a from-scratch
   run. Those checks build a second session, so they run after the last
   episode, once the peak RSS has been read, from copies marshalled to
   files in [dir]. *)
let eco_d1 ~dir ~seed ~episodes ~rounds ~scale () =
  let acc = new_acc () in
  let order = Array.init episodes Fun.id in
  Rng.shuffle (Rng.create seed) order;
  let checks = ref [] in
  Array.iteri
    (fun pos ep ->
      let g, s =
        setup acc (fun () ->
            let g = generate ~op:(-1 - pos) (P.scaled P.d1 scale) in
            let s =
              Trace.with_span ~name:"bench.session_create" (fun () ->
                  Flow.Session.create ~options ~design:g.G.design
                    ~placement:g.G.placement ~library:g.G.library
                    ~sta_config:g.G.sta_config ())
            in
            ignore (Trace.with_span ~name:"bench.warmup" (fun () -> Flow.Session.recompose s));
            (g, s))
      in
      boundary ();
      for round = 0 to rounds - 1 do
        let op = (pos * rounds) + round in
        let eco_seed = (1_000_003 * (ep + 1)) + round in
        let final = round = rounds - 1 in
        let snapshot = Filename.concat dir (Printf.sprintf "eco-%d.snapshot" op) in
        if final then begin
          let oc = open_out_bin snapshot in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Marshal.to_channel oc g [])
        end;
        let st =
          Trace.with_span ~name:"bench.perturb" ~args:[ ("op", Trace.Int op) ]
            (fun () -> Eco.perturb (Rng.create eco_seed) g)
        in
        acc.fp <-
          Printf.sprintf "%d:%d.%d:%d/%d/%d/%d" op ep round st.Eco.moved st.Eco.retyped
            st.Eco.removed st.Eco.added
          :: acc.fp;
        match time_op acc ~op (fun () -> Flow.Session.recompose s) with
        | None -> if final then Sys.remove snapshot
        | Some r ->
          note_result acc r;
          if final then
            let a = r.Flow.after in
            let got = (float_of_int a.CM.total_regs, r.Flow.ilp_cost, a.CM.wns, a.CM.tns) in
            checks := (op, snapshot, eco_seed, got) :: !checks
      done;
      end_segment acc)
    order;
  let rss = peak_rss_mb () in
  List.iter
    (fun (op, snapshot, eco_seed, got) ->
      Option.iter (fail acc) (check_eco ~op ~snapshot ~eco_seed ~got))
    (List.rev !checks);
  finish ~rss acc
