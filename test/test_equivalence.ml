(* Equivalence properties backing the candidate kernel, the worklist
   rewrites and the multi-corner engine:
   - the candidate stream of every partition block of D1–D5, over a
     blocker index with entries on footprint corners and edge
     midpoints, and of a hand-built row whose area sums round by
     member order, is the pre-change enumeration kept in
     [Candidate_reference] — same candidates in the same order, every
     field equal, weights and regions by their bits;
   - the worklist-driven skew optimizer is bit-identical to the
     whole-design reference sweep ([~full_sweep:true]) — same report,
     same final per-register skews;
   - an engine analyzing one unit-derate corner is bit-identical to
     the default (pre-corner) engine, through builds AND refreshes —
     the corner-indexed arrays are a pure generalization, never a
     numeric drift;
   - the single-sweep QoR pass behind [Metrics.collect] is bit-identical
     to the pre-change pass kept in [Qor_reference] — every field,
     floats compared by their bits — and so is a session's carried
     metrics state, in both snapshots of every recompose and after
     each single kind of edit;
   - a propagation plan patched in place across refreshes (composition
     merges, scan restitching, ECO batches, runs of small refreshes, a
     data net gaining many sinks at once, long add/remove churn that
     compacts the succ entries and the topological order) gives the
     slacks, endpoint set and WNS/TNS of a fresh build + analyze, bit
     for bit, never costs a refresh a from-scratch plan build, and
     rewrites rows in proportion to the pins a refresh flagged;
   - the engine's per-corner arrival and required times, through
     analyze, skew batches, merges, scan restitching and ECO refreshes,
     equal an independent full sweep kept in [Sta_reference] — the
     per-pin formulas over adjacency rebuilt from the design, no plan,
     compared by their bits;
   - the array walk behind [Scan_stitch.chain_order] gives every
     partition of D1–D5, tiny and flat designs the order of the
     list walk kept in [Scan_reference], ties and unplaced registers
     included. *)

module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Allocate = Mbr_core.Allocate
module Spatial = Mbr_core.Spatial
module Design = Mbr_netlist.Design
module Engine = Mbr_sta.Engine
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell
module Compose = Mbr_core.Compose
module Scan_stitch = Mbr_dft.Scan_stitch
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Corner = Mbr_sta.Corner
module Skew = Mbr_sta.Skew
module Kpart = Mbr_graph.Kpart
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng
module Metrics = Mbr_core.Metrics
module Flow = Mbr_core.Flow
module Estimator = Mbr_route.Estimator
module Synth = Mbr_cts.Synth
module Power = Mbr_core.Power
module Reference = Qor_reference

(* A candidate with its floats as bits. *)
let candidate_bits (c : Candidate.t) =
  let r = c.Candidate.region in
  ( (c.Candidate.members, c.Candidate.member_cids, c.Candidate.func_class),
    (c.Candidate.bits, c.Candidate.target_bits, c.Candidate.incomplete),
    Int64.bits_of_float c.Candidate.weight,
    List.map Int64.bits_of_float Rect.[ r.lx; r.ly; r.hx; r.hy ] )

(* One block's stream from the library and from the reference, in
   emission order; [None] when they are equal, else the first index
   where they part (or the shorter length). *)
let stream_mismatch cfg graph ~lib ~index block =
  let collect iter =
    let out = ref [] in
    iter (fun c -> out := candidate_bits c :: !out);
    List.rev !out
  in
  let got =
    collect
      (Candidate.iter cfg graph ~block ~lib
         ~blockers:(Candidate.blockers graph ~block index))
  in
  let want =
    collect (Candidate_reference.iter cfg graph ~block ~lib ~blocker_index:index)
  in
  let rec first k a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' -> if x = y then first (k + 1) a' b' else Some k
    | [], _ :: _ | _ :: _, [] -> Some k
  in
  Option.map
    (fun k -> (k, List.length got, List.length want))
    (first 0 got want)

let weight_configs =
  List.concat_map
    (fun use_weights ->
      List.map
        (fun allow_incomplete ->
          { Candidate.default_config with Candidate.use_weights; allow_incomplete })
        [ true; false ])
    [ true; false ]

(* The design's registers at their centres, plus foreign entries (cell
   ids no register has) where the closed bounding box and the 1e-9
   tolerance decide: on footprint corners, which are hull vertices
   whenever they are extreme, on the midpoint of a footprint's bottom
   edge, and on the midpoint between the upper-right corners of two
   compatible registers, on their hull's edge whenever both corners
   are hull vertices. *)
let stress_index (graph : Compat.graph) =
  let infos = graph.Compat.infos in
  let idx = Spatial.create () in
  Array.iter (fun i -> Spatial.add idx i.Compat.cid i.Compat.center) infos;
  let next = ref (1 + Array.fold_left (fun acc i -> max acc i.Compat.cid) 0 infos) in
  let foreign p =
    Spatial.add idx !next p;
    incr next
  in
  Array.iteri
    (fun k (i : Compat.reg_info) ->
      let r = i.Compat.footprint in
      let corners = Array.of_list (Rect.corners r) in
      if k mod 5 = 0 then foreign corners.(k / 5 mod 4);
      if k mod 7 = 1 then
        foreign (Point.make ((r.Rect.lx +. r.Rect.hx) /. 2.0) r.Rect.ly);
      if k mod 11 = 2 then
        match Csr.neighbors graph.Compat.adj k with
        | j :: _ ->
          let cj = Array.of_list (Rect.corners infos.(j).Compat.footprint) in
          foreign (Point.midpoint corners.(2) cj.(2))
        | [] -> ())
    infos;
  idx

(* Every Kpart block of D1–D5 (×0.4), under each weights/incomplete
   setting: blocks of at most 13 nodes take the DFS path, larger ones
   the structured path, and both must show up. *)
let stream_matches_reference () =
  let dfs = ref 0 and structured = ref 0 in
  List.iter
    (fun (name, profile) ->
      let g = G.generate (P.scaled profile 0.4) in
      let eng = Engine.build ~config:g.G.sta_config g.G.placement in
      let graph = Compat.build_graph eng g.G.library in
      let position v = graph.Compat.infos.(v).Compat.center in
      let blocks = Kpart.partition ~bound:30 graph.Compat.adj ~position in
      let index = stress_index graph in
      List.iter
        (fun block ->
          if List.length block > 13 then incr structured else incr dfs;
          List.iter
            (fun cfg ->
              match stream_mismatch cfg graph ~lib:g.G.library ~index block with
              | None -> ()
              | Some (k, got, want) ->
                Alcotest.failf
                  "%s: %d-node block (weights %b, incomplete %b): streams part \
                   at candidate %d (%d candidates, reference %d)"
                  name (List.length block) cfg.Candidate.use_weights
                  cfg.Candidate.allow_incomplete k got want)
            weight_configs)
        blocks)
    [ ("d1", P.d1); ("d2", P.d2); ("d3", P.d3); ("d4", P.d4); ("d5", P.d5) ];
  Alcotest.(check bool) "DFS blocks compared" true (!dfs > 0);
  Alcotest.(check bool) "structured blocks compared" true (!structured > 0)

(* A row of 16 one-bit registers 3 µm apart, all compatible: a 1×1
   footprint at position 8, 2^-27 × 2^-26 ones elsewhere, so a member
   area sum is 1.0 when the big register comes first and 1 + 2^-52
   when two small ones precede it. The chain seeded at 8 first emits
   {6, 7, 8} in the order 8, 7, 6 (ties go to the lower position), and
   the incomplete overhead puts the 4-bit cell's area between the two
   sums: the area rule holds only for the order it is summed in. *)
let rounding_row_matches_reference () =
  let lib = Mbr_liberty.Presets.default () in
  let n = 16 in
  let infos =
    Array.init n (fun i ->
        let x = 3.0 *. float_of_int i in
        let footprint =
          if i = 8 then Rect.make ~lx:(x -. 0.5) ~ly:(-0.5) ~hx:(x +. 0.5) ~hy:0.5
          else Rect.make ~lx:x ~ly:0.0 ~hx:(x +. 0x1p-27) ~hy:0x1p-26
        in
        Compat.
          {
            cid = i;
            bits = 1;
            func_class = "dff";
            clock = 0;
            enable = None;
            reset = None;
            scan = None;
            drive_res = 2.0;
            d_slack = 50.0;
            q_slack = 50.0;
            footprint;
            feasible = Rect.expand footprint 60.0;
            center = Point.make x 0.0;
          })
  in
  let b = Csr.Builder.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Csr.Builder.add_edge b i j
    done
  done;
  let graph = { Compat.adj = Csr.Builder.finish b; infos } in
  let index = Spatial.create () in
  Array.iter (fun i -> Spatial.add index i.Compat.cid i.Compat.center) infos;
  let area4 =
    match
      Mbr_core.Mapping.best_for lib ~func_class:"dff" ~bits:4 ~max_drive_res:2.0
        ~need:`No
    with
    | Some c -> c.Cell_lib.area
    | None -> Alcotest.fail "no 4-bit dff"
  in
  let overhead = Float.pred area4 -. 1.0 in
  Alcotest.(check bool) "1 + overhead is exact" true (1.0 +. overhead = Float.pred area4);
  List.iter
    (fun use_weights ->
      let cfg =
        {
          Candidate.default_config with
          Candidate.use_weights;
          allow_incomplete = true;
          incomplete_area_overhead = overhead;
        }
      in
      match stream_mismatch cfg graph ~lib ~index (List.init n Fun.id) with
      | None -> ()
      | Some (k, got, want) ->
        Alcotest.failf
          "weights %b: streams part at candidate %d (%d candidates, reference %d)"
          use_weights k got want)
    [ true; false ]

(* The worklist sweep must be indistinguishable from the full sweep:
   identical report fields and identical final skew on every register,
   including designs with real violations (shrunk clock period). *)
let worklist_skew_matches_full_sweep =
  QCheck.Test.make ~name:"worklist skew = full-sweep skew"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      (* shrink the period on odd seeds so violations actually exist *)
      let factor = if seed mod 2 = 0 then 1.0 else 0.55 +. (0.1 *. float_of_int (seed mod 4)) in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. factor }
      in
      let eng_work = Engine.build ~config g.G.placement in
      let eng_full = Engine.build ~config g.G.placement in
      let rep_work = Skew.optimize eng_work in
      let rep_full = Skew.optimize ~full_sweep:true eng_full in
      let ok = ref true in
      let fail fmt = ok := false; QCheck.Test.fail_reportf fmt in
      if rep_work <> rep_full then
        fail
          "seed %d: reports differ: worklist (tns %.17g wns %.17g sweeps %d) \
           vs full (tns %.17g wns %.17g sweeps %d)"
          seed rep_work.Skew.tns_after rep_work.Skew.wns_after
          rep_work.Skew.sweeps_run rep_full.Skew.tns_after
          rep_full.Skew.wns_after rep_full.Skew.sweeps_run;
      List.iter
        (fun r ->
          let s_work = Engine.skew eng_work r and s_full = Engine.skew eng_full r in
          if s_work <> s_full then
            fail "seed %d: register %d skew %.17g (worklist) <> %.17g (full)"
              seed r s_work s_full)
        (Design.registers g.G.design);
      !ok)

(* A single unit-derate corner — whatever its name — must be
   indistinguishable from the default engine, bit for bit: same wns /
   tns / failing counts and identical arrival / required on every pin.
   The property must survive {!Engine.refresh} too, because the
   incremental path re-times only dirty regions: both engines watch the
   same design/placement objects, so one ECO batch drives both and any
   corner-indexed refresh bug shows up as a pin-level mismatch. *)
let unit_corner_matches_default =
  QCheck.Test.make ~name:"1 unit corner engine = default engine (bit-exact)"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.tiny ~seed:(seed mod 37)) in
      let unit = Corner.make ~name:"u" ~cell:1.0 ~wire:1.0 ~setup:1.0 in
      let eng_default = Engine.build ~config:g.G.sta_config g.G.placement in
      let eng_unit =
        Engine.build ~config:g.G.sta_config ~corners:[| unit |] g.G.placement
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let compare_engines what =
        Engine.analyze eng_default;
        Engine.analyze eng_unit;
        if Engine.wns eng_default <> Engine.wns eng_unit then
          fail "seed %d (%s): wns %.17g (default) <> %.17g (unit corner)" seed
            what (Engine.wns eng_default) (Engine.wns eng_unit);
        if Engine.tns eng_default <> Engine.tns eng_unit then
          fail "seed %d (%s): tns %.17g (default) <> %.17g (unit corner)" seed
            what (Engine.tns eng_default) (Engine.tns eng_unit);
        if
          Engine.failing_endpoints eng_default
          <> Engine.failing_endpoints eng_unit
        then
          fail "seed %d (%s): failing endpoints %d <> %d" seed what
            (Engine.failing_endpoints eng_default)
            (Engine.failing_endpoints eng_unit);
        for pid = 0 to Design.n_pins g.G.design - 1 do
          if Engine.arrival eng_default pid <> Engine.arrival eng_unit pid then
            fail "seed %d (%s): arrival mismatch at pin %d" seed what pid;
          if Engine.required eng_default pid <> Engine.required eng_unit pid
          then fail "seed %d (%s): required mismatch at pin %d" seed what pid
        done
      in
      compare_engines "fresh build";
      (* same ECO batch hits both engines (shared design/placement);
         the refreshed timings must stay bit-identical *)
      let rng = Rng.create ((seed * 13) + 5) in
      for round = 1 to 2 do
        ignore (Eco.perturb rng g);
        Engine.refresh eng_default;
        Engine.refresh eng_unit;
        compare_engines (Printf.sprintf "refresh %d" round)
      done;
      true)

(* The batched [update_skews] must be bit-identical to the
   brute-force reference: set the same skews and run a full [analyze].
   Exercised over random skew batches interleaved with real ECO
   perturbations + [refresh] (which patches the shared propagation
   plan), under 1- and 3-corner sets, and with a cancel token tripping
   mid-batch — a batch is atomic, so a tripped token must leave exactly
   the planes an uncancelled call would. Also checks the
   [update_skews_touched] contract: any register whose D/Q slack moved
   is in the reported set. *)
let batched_update_skews_matches_analyze =
  QCheck.Test.make ~name:"batched update_skews = set_skew + analyze"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      let corners =
        if seed mod 2 = 0 then [| Corner.default.(0) |]
        else
          [|
            Corner.make ~name:"fast" ~cell:0.9 ~wire:0.85 ~setup:1.0;
            Corner.make ~name:"typ" ~cell:1.0 ~wire:1.0 ~setup:1.0;
            Corner.make ~name:"slow" ~cell:1.15 ~wire:1.25 ~setup:1.05;
          |]
      in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. 0.7 }
      in
      let eng = Engine.build ~config ~corners g.G.placement in
      let ref_eng = Engine.build ~config ~corners g.G.placement in
      let rng = Rng.create ((seed * 31) + 7) in
      let regs = Array.of_list (Design.registers g.G.design) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let compare_engines what =
        if Engine.wns_tns eng <> Engine.wns_tns ref_eng then
          fail "seed %d (%s): wns/tns differ" seed what;
        for pid = 0 to Design.n_pins g.G.design - 1 do
          for k = 0 to Array.length corners - 1 do
            if Engine.corner_slack eng k pid <> Engine.corner_slack ref_eng k pid
            then
              fail "seed %d (%s): corner %d slack mismatch at pin %d" seed what
                k pid
          done
        done
      in
      let slacks_of e =
        Array.map
          (fun r -> (Engine.reg_d_slack e r, Engine.reg_q_slack e r))
          regs
      in
      for round = 1 to 4 do
        (* a random batch: some fresh offsets, some reverts to 0 *)
        let batch = ref [] in
        let n_moves = 1 + Rng.int rng 8 in
        for _ = 1 to n_moves do
          let r = regs.(Rng.int rng (Array.length regs)) in
          let s =
            if Rng.chance rng 0.25 then 0.0 else Rng.float rng 40.0 -. 20.0
          in
          if not (List.mem_assoc r !batch) then batch := (r, s) :: !batch
        done;
        let before = slacks_of eng in
        (* cancel tokens tripping mid-batch must not change the result:
           the batch is atomic *)
        let cancel =
          if round mod 2 = 0 then
            Some (Mbr_util.Cancel.after_checks (1 + Rng.int rng 3))
          else None
        in
        let touched = Engine.update_skews_touched ?cancel eng !batch in
        List.iter (fun (r, s) -> Engine.set_skew ref_eng r s) !batch;
        Engine.analyze ref_eng;
        compare_engines (Printf.sprintf "round %d" round);
        let after = slacks_of eng in
        Array.iteri
          (fun i r ->
            if before.(i) <> after.(i) && not (List.mem r touched) then
              fail "seed %d round %d: register %d slack moved but not touched"
                seed round r)
          regs;
        (* every other round, a real ECO + refresh: the shared
           propagation plan must be patched, not reused stale *)
        if round mod 2 = 1 then begin
          ignore (Eco.perturb rng g);
          Engine.refresh eng;
          Engine.refresh ref_eng;
          compare_engines (Printf.sprintf "post-eco %d" round)
        end
      done;
      true)

(* ---- propagation plan: patched = fresh, bit for bit ---- *)

let three_corners =
  [|
    Corner.make ~name:"fast" ~cell:0.9 ~wire:0.85 ~setup:1.0;
    Corner.make ~name:"typ" ~cell:1.0 ~wire:1.0 ~setup:1.0;
    Corner.make ~name:"slow" ~cell:1.15 ~wire:1.25 ~setup:1.05;
  |]

let bits_opt = function
  | None -> None
  | Some v -> Some (Int64.bits_of_float v)

(* Merge up to [k] random placed same-class register pairs into the
   next wider library cell. *)
let merge_some rng (g : G.t) k =
  let dsg = g.G.design and pl = g.G.placement and lib = g.G.library in
  for _ = 1 to k do
    let placed =
      Array.of_list
        (List.filter (Placement.is_placed pl) (Design.registers dsg))
    in
    if Array.length placed >= 2 then begin
      let a = placed.(Rng.int rng (Array.length placed)) in
      let ca = (Design.reg_attrs dsg a).Types.lib_cell in
      let fits b =
        b <> a
        &&
        let cb = (Design.reg_attrs dsg b).Types.lib_cell in
        cb.Cell_lib.func_class = ca.Cell_lib.func_class
        && cb.Cell_lib.scan = ca.Cell_lib.scan
      in
      match List.filter fits (Array.to_list placed) with
      | [] -> ()
      | partners -> (
        let b = Rng.pick_list rng partners in
        let bits = ca.Cell_lib.bits + (Design.reg_attrs dsg b).Types.lib_cell.Cell_lib.bits in
        match
          List.filter
            (fun (c : Cell_lib.t) -> c.Cell_lib.scan = ca.Cell_lib.scan)
            (Library.cells_of lib ~func_class:ca.Cell_lib.func_class ~bits)
        with
        | [] -> ()
        | cell :: _ -> (
          try
            ignore
              (Compose.execute pl
                 { Compose.member_cids = [ a; b ]; cell; corner = Placement.location pl a })
          with Invalid_argument _ -> ()))
    end
  done

(* Nudge one placed register: the smallest ECO, a refresh that patches
   only the pins of the register's nets. *)
let nudge rng (g : G.t) =
  let pl = g.G.placement in
  match List.filter (Placement.is_placed pl) (Design.registers g.G.design) with
  | [] -> ()
  | regs ->
    let r = Rng.pick_list rng regs in
    let p = Placement.location pl r in
    Placement.set pl r
      (Point.make (p.Point.x +. Rng.float_in rng (-4.0) 4.0) p.Point.y)

(* Add registers until at least 8 of the new ones have an unconnected
   D pin, then wire every such pin onto one data net driven by a comb
   output: the driver's succ row outgrows the capacity it was laid out
   with and moves. *)
let fan_in_d_pins rng (g : G.t) =
  let dsg = g.G.design in
  let n0 = Design.n_pins dsg in
  let loose () =
    List.filter
      (fun pid ->
        let p = Design.pin dsg pid in
        (match p.Types.p_kind with Types.Pin_d _ -> true | _ -> false)
        && p.Types.p_net = None
        && not (Design.cell dsg p.Types.p_cell).Types.c_dead)
      (List.init (Design.n_pins dsg - n0) (fun i -> n0 + i))
  in
  while List.length (loose ()) < 8 do
    let n_regs = max 1 (List.length (Design.registers dsg)) in
    ignore
      (Eco.perturb
         ~config:
           { Eco.default_config with
             Eco.move_frac = 0.0;
             retype_frac = 0.0;
             remove_frac = 0.0;
             add_frac = 8.0 /. float_of_int n_regs }
         rng g)
  done;
  let comb_driven nid =
    match Design.driver dsg nid with
    | Some d -> (
      match (Design.cell dsg (Design.pin dsg d).Types.p_cell).Types.c_kind with
      | Types.Comb _ -> true
      | _ -> false)
    | None -> false
  in
  let target =
    List.find_map
      (fun cid ->
        List.find_map
          (fun pid ->
            match (Design.pin dsg pid).Types.p_net with
            | Some nid when comb_driven nid -> Some nid
            | _ -> None)
          (Design.pins_of dsg cid))
      (Design.registers dsg)
  in
  Option.iter
    (fun nid -> List.iter (fun pid -> Design.connect dsg pid nid) (loose ()))
    target

(* Every pin's per-corner slack, and the endpoint folds (count,
   failing count, WNS and TNS by their bits: a stale start/endpoint
   list shows only there), against a fresh build carrying the same
   skews. *)
let compare_with_fresh ~what ~config eng (g : G.t) =
  let fresh =
    Engine.build ~config ~corners:(Engine.corners eng) g.G.placement
  in
  List.iter (fun (cid, s) -> Engine.set_skew fresh cid s) (Engine.skew_assignments eng);
  Engine.analyze fresh;
  let folds e =
    let w, tn = Engine.wns_tns e in
    ( Engine.n_endpoints e,
      Engine.failing_endpoints e,
      Int64.bits_of_float w,
      Int64.bits_of_float tn )
  in
  if folds eng <> folds fresh then
    QCheck.Test.fail_reportf
      "%s: endpoint count, failing count, WNS or TNS differs from a fresh build"
      what;
  for pid = 0 to Design.n_pins g.G.design - 1 do
    for k = 0 to Engine.n_corners eng - 1 do
      if bits_opt (Engine.corner_slack eng k pid) <> bits_opt (Engine.corner_slack fresh k pid)
      then
        QCheck.Test.fail_reportf "%s: corner %d slack of pin %d differs from a fresh build"
          what k pid
    done
  done

(* Per register, the bits of every corner's slack at its D and Q pins
   (on one corner, exactly its D/Q arrivals and requireds). *)
let reg_pin_bits eng dsg =
  List.map
    (fun cid ->
      let pins =
        List.filter
          (fun pid ->
            match (Design.pin dsg pid).Types.p_kind with
            | Types.Pin_d _ | Types.Pin_q _ -> true
            | _ -> false)
          (Design.pins_of dsg cid)
      in
      ( cid,
        List.map
          (fun pid ->
            ( bits_opt (Engine.arrival eng pid),
              bits_opt (Engine.required eng pid),
              List.init (Engine.n_corners eng) (fun k ->
                  bits_opt (Engine.corner_slack eng k pid)) ))
          pins ))
    (Design.registers dsg)

let plan_patch_matches_fresh =
  QCheck.Test.make ~name:"patched plan = fresh build + analyze (bits)" ~count:16
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p =
        if seed mod 2 = 0 then P.tiny ~seed:(seed mod 37)
        else { (P.scaled P.d1 0.2) with P.seed = P.d1.P.seed + seed }
      in
      let g = G.generate p in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. 0.7 }
      in
      let one = seed mod 4 < 2 in
      let eng =
        Engine.build ~config
          ~corners:(if one then Corner.default else three_corners)
          g.G.placement
      in
      let rng = Rng.create ((seed * 41) + 3) in
      (* the refreshes below stay incremental, so a plan build can only
         come from an analyze or a corner swap *)
      let refresh () = Engine.refresh eng in
      let moves_only =
        { Eco.default_config with
          Eco.retype_frac = 0.0;
          remove_frac = 0.0;
          add_frac = 0.0 }
      in
      for step = 1 to 8 do
        let builds = Engine.plan_builds eng in
        let kind = Rng.int rng 7 in
        let may_build =
          match kind with
          | 0 -> merge_some rng g (1 + Rng.int rng 4); refresh (); false
          | 1 -> ignore (Scan_stitch.stitch g.G.placement); refresh (); false
          | 2 -> ignore (Eco.perturb rng g); refresh (); false
          | 3 ->
            (* a run of small refreshes, each patching the plan at the
               pins of the nudged register's nets *)
            for _ = 1 to 3 do
              nudge rng g;
              refresh ()
            done;
            false
          | 4 ->
            (* placement moves absorbed by an analyze between refreshes *)
            nudge rng g;
            refresh ();
            ignore (Eco.perturb ~config:moves_only rng g);
            Engine.analyze eng;
            nudge rng g;
            refresh ();
            true
          | 5 -> fan_in_d_pins rng g; refresh (); false
          | _ ->
            Engine.set_corners eng
              (if Engine.n_corners eng = 1 then three_corners else Corner.default);
            true
        in
        let what = Printf.sprintf "seed %d step %d (kind %d)" seed step kind in
        let regs = Array.of_list (Design.registers g.G.design) in
        let batch = ref [] in
        let n_moves = 1 + Rng.int rng (max 1 (Array.length regs / 4)) in
        for _ = 1 to n_moves do
          let r = regs.(Rng.int rng (Array.length regs)) in
          let s = if Rng.chance rng 0.2 then 0.0 else Rng.float rng 40.0 -. 20.0 in
          if not (List.mem_assoc r !batch) then batch := (r, s) :: !batch
        done;
        let before = reg_pin_bits eng g.G.design in
        let touched = Engine.update_skews_touched eng !batch in
        let after = reg_pin_bits eng g.G.design in
        let changed =
          List.filter_map
            (fun ((cid, b), (_, a)) -> if a <> b then Some cid else None)
            (List.combine before after)
        in
        if Engine.n_corners eng = 1 then begin
          if touched <> changed then
            QCheck.Test.fail_reportf
              "%s: touched %d registers, %d D/Q timings changed" what
              (List.length touched) (List.length changed)
        end
        else if List.exists (fun cid -> not (List.mem cid touched)) changed then
          QCheck.Test.fail_reportf "%s: a register's slack moved untouched" what;
        if (not may_build) && Engine.plan_builds eng <> builds then
          QCheck.Test.fail_reportf "%s: a refresh rebuilt the plan from scratch"
            what;
        compare_with_fresh ~what ~config eng g
      done;
      Engine.full_builds eng = 1)

(* Each incremental refresh patches the plan once, right after its
   splice: three nudge + refresh rounds patch three times and build
   nothing, the skew batch that follows reuses the plan as it is, and
   the result equals a fresh analysis. *)
let refresh_patches_once () =
  let g = G.generate { (P.scaled P.d1 0.2) with P.seed = P.d1.P.seed + 1 } in
  let config = g.G.sta_config in
  let eng = Engine.build ~config g.G.placement in
  let rng = Rng.create 17 in
  let builds = Engine.plan_builds eng and patches = Engine.plan_patches eng in
  for _ = 1 to 3 do
    nudge rng g;
    Engine.refresh eng
  done;
  Alcotest.(check int) "three incremental refreshes" 3 (Engine.refreshes eng);
  Alcotest.(check int) "one patch per refresh" (patches + 3)
    (Engine.plan_patches eng);
  Alcotest.(check int) "no build" builds (Engine.plan_builds eng);
  let regs = Array.of_list (Design.registers g.G.design) in
  ignore
    (Engine.update_skews_touched eng
       (List.init 5 (fun i -> (regs.(i * 7 mod Array.length regs), 5.0 -. float_of_int i))));
  Alcotest.(check int) "the skew batch patches nothing" (patches + 3)
    (Engine.plan_patches eng);
  Alcotest.(check int) "still no build" builds (Engine.plan_builds eng);
  compare_with_fresh ~what:"after the skew batch" ~config eng g

(* Thirty add/remove rounds on one engine: an ECO batch that removes a
   quarter of the registers and adds a tenth, the removal of ~8 % of
   the comb cells (a vanishing comb cell stays on the incremental
   path), and every third round new D pins wired onto a data net.
   Removed drivers leave dead succ entries and grown rows move, until
   the succ entries are compacted; removed cells leave tombstones in
   the topological order, until it is laid out afresh. Every refresh
   stays incremental, and after every round the engine equals a fresh
   build, by bits. *)
let churn_compacts () =
  let g = G.generate (P.tiny ~seed:5) in
  let dsg = g.G.design in
  let config = g.G.sta_config in
  let eng = Engine.build ~config g.G.placement in
  let rng = Rng.create 29 in
  let churn =
    { Eco.default_config with
      Eco.move_frac = 0.0;
      retype_frac = 0.0;
      remove_frac = 0.25;
      add_frac = 0.1 }
  in
  let remove_combs () =
    for cid = 0 to Design.n_cells dsg - 1 do
      let c = Design.cell dsg cid in
      match c.Types.c_kind with
      | Types.Comb _ when (not c.Types.c_dead) && Rng.chance rng 0.08 ->
        Design.remove_cell dsg cid;
        Placement.remove g.G.placement cid
      | _ -> ()
    done
  in
  Mbr_obs.Trace.clear ();
  Mbr_obs.Trace.enable ();
  for round = 1 to 30 do
    ignore (Eco.perturb ~config:churn rng g);
    remove_combs ();
    if round mod 3 = 0 then fan_in_d_pins rng g;
    Engine.refresh eng;
    compare_with_fresh ~what:(Printf.sprintf "churn round %d" round) ~config eng g
  done;
  Mbr_obs.Trace.disable ();
  let spans name =
    let events =
      Option.value ~default:[]
        (Option.bind
           (Mbr_obs.Json.member "traceEvents" (Mbr_obs.Trace.export ()))
           Mbr_obs.Json.to_list)
    in
    List.length
      (List.filter
         (fun e ->
           Option.bind (Mbr_obs.Json.member "name" e) Mbr_obs.Json.to_str = Some name
           && Option.bind (Mbr_obs.Json.member "ph" e) Mbr_obs.Json.to_str = Some "B")
         events)
  in
  let compactions = spans "sta.plan.compact" and relayouts = spans "sta.topo.compact" in
  Mbr_obs.Trace.clear ();
  Alcotest.(check bool) "succ entries compacted" true (compactions > 0);
  Alcotest.(check bool) "order laid out afresh" true (relayouts > 0);
  Alcotest.(check int) "30 incremental refreshes" 30 (Engine.refreshes eng);
  Alcotest.(check int) "one full build" 1 (Engine.full_builds eng)

(* One nudge flags the pins of one register's nets, and its patch
   rewrites a small multiple of their rows, not the plan: a patch that
   copied the whole plan would still be bit-exact. *)
let patch_follows_dirty_set () =
  let g = G.generate { (P.scaled P.d1 0.2) with P.seed = P.d1.P.seed + 2 } in
  let config = g.G.sta_config in
  let eng = Engine.build ~config g.G.placement in
  let was_on = Mbr_obs.Metrics.is_enabled () in
  Mbr_obs.Metrics.enable ();
  let dirty = Mbr_obs.Metrics.counter "sta.dirty_pins" in
  let rows = Mbr_obs.Metrics.counter "sta.plan.rows_patched" in
  let d0 = Mbr_obs.Metrics.counter_value dirty in
  let r0 = Mbr_obs.Metrics.counter_value rows in
  nudge (Rng.create 3) g;
  Engine.refresh eng;
  let flagged = Mbr_obs.Metrics.counter_value dirty - d0 in
  let written = Mbr_obs.Metrics.counter_value rows - r0 in
  if not was_on then Mbr_obs.Metrics.disable ();
  Alcotest.(check int) "one patch" 1 (Engine.plan_patches eng);
  Alcotest.(check bool)
    (Printf.sprintf "rows written (%d) within 4x the pins flagged (%d)" written
       flagged)
    true
    (flagged > 0 && written > 0 && written <= 4 * flagged);
  Alcotest.(check bool)
    (Printf.sprintf "rows written (%d) far below the pin count (%d)" written
       (Design.n_pins g.G.design))
    true
    (100 * written < Design.n_pins g.G.design);
  compare_with_fresh ~what:"after one nudge" ~config eng g

(* ---- timing = independent reference sweep, bit for bit ---- *)

(* Every pin's per-corner arrival and required time against the
   reference sweep over the current design, placement and skews. *)
let check_reference ~what eng (g : G.t) =
  let r =
    Sta_reference.analyze ~skew:(Engine.skew eng) ~config:(Engine.config eng)
      ~corners:(Engine.corners eng) g.G.placement
  in
  for pid = 0 to Design.n_pins g.G.design - 1 do
    for k = 0 to Engine.n_corners eng - 1 do
      if bits_opt (Engine.corner_arrival eng k pid) <> bits_opt (Sta_reference.arrival r k pid)
      then
        QCheck.Test.fail_reportf "%s: corner %d arrival of pin %d differs from the reference"
          what k pid;
      if bits_opt (Engine.corner_required eng k pid) <> bits_opt (Sta_reference.required r k pid)
      then
        QCheck.Test.fail_reportf "%s: corner %d required of pin %d differs from the reference"
          what k pid
    done
  done

(* Random skews, then analyze; then a random sequence of skew batches,
   composition merges, scan restitching and ECO batches, each followed
   by the engine's incremental path (update_skews or refresh). *)
let timing_matches_reference =
  QCheck.Test.make ~name:"engine timing = reference full sweep (bits)" ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p =
        if seed mod 2 = 0 then P.tiny ~seed:(seed mod 37)
        else { (P.scaled P.d1 0.2) with P.seed = P.d1.P.seed + seed }
      in
      let g = G.generate p in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. 0.7 }
      in
      let eng =
        Engine.build ~config
          ~corners:(if seed mod 4 < 2 then Corner.default else three_corners)
          g.G.placement
      in
      let rng = Rng.create ((seed * 23) + 11) in
      let skew_batch () =
        let regs = Array.of_list (Design.registers g.G.design) in
        List.init
          (1 + Rng.int rng (max 1 (Array.length regs / 4)))
          (fun _ ->
            ( regs.(Rng.int rng (Array.length regs)),
              if Rng.chance rng 0.2 then 0.0 else Rng.float rng 40.0 -. 20.0 ))
      in
      List.iter (fun (r, s) -> Engine.set_skew eng r s) (skew_batch ());
      Engine.analyze eng;
      check_reference ~what:(Printf.sprintf "seed %d analyze" seed) eng g;
      for step = 1 to 6 do
        let kind = Rng.int rng 4 in
        (match kind with
        | 0 -> merge_some rng g (1 + Rng.int rng 4); Engine.refresh eng
        | 1 -> ignore (Scan_stitch.stitch g.G.placement); Engine.refresh eng
        | 2 -> ignore (Eco.perturb rng g); Engine.refresh eng
        | _ -> Engine.update_skews eng (skew_batch ()));
        check_reference
          ~what:(Printf.sprintf "seed %d step %d (kind %d)" seed step kind)
          eng g
      done;
      true)

(* ---- QoR pass = pre-change reference, bit for bit ---- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Names (with both values) of the [Metrics.t] fields that differ; all
   17 fields, floats by their bits. *)
let metrics_mismatches (a : Metrics.t) (b : Metrics.t) =
  let f name x y =
    if same_bits x y then [] else [ Printf.sprintf "%s %h <> %h" name x y ]
  in
  let i name x y =
    if x = y then [] else [ Printf.sprintf "%s %d <> %d" name x y ]
  in
  let corners =
    if
      List.length a.Metrics.corners = List.length b.Metrics.corners
      && List.for_all2
           (fun (n, w, t) (n', w', t') -> n = n' && same_bits w w' && same_bits t t')
           a.Metrics.corners b.Metrics.corners
    then []
    else [ "corners" ]
  in
  List.concat
    [
      i "cells" a.cells b.cells;
      f "area" a.area b.area;
      f "clk_wl" a.clk_wl b.clk_wl;
      f "other_wl" a.other_wl b.other_wl;
      i "total_regs" a.total_regs b.total_regs;
      i "comp_regs" a.comp_regs b.comp_regs;
      i "clk_bufs" a.clk_bufs b.clk_bufs;
      f "clk_cap" a.clk_cap b.clk_cap;
      f "clk_power" a.clk_power b.clk_power;
      f "clk_power_frac" a.clk_power_frac b.clk_power_frac;
      f "tns" a.tns b.tns;
      f "wns" a.wns b.wns;
      i "failing" a.failing b.failing;
      i "endpoints" a.endpoints b.endpoints;
      i "ovfl" a.ovfl b.ovfl;
      f "utilization" a.utilization b.utilization;
      corners;
    ]

(* The three sub-passes against their references: the route estimate
   of a fresh state (old fields by their bits, each net's HPWL against
   the old per-net HPWL) and the CTS tree (structurally: same tree,
   same order). *)
let pass_mismatches ?route_config pl =
  let dsg = Mbr_place.Placement.design pl in
  let st = Estimator.create ?config:route_config pl in
  let r = Estimator.update st in
  let r0 = Reference.Route.estimate ?config:route_config pl in
  let route =
    List.concat
      [
        (if same_bits r.Estimator.signal_wl r0.Reference.Route.signal_wl then []
         else [ "route.signal_wl" ]);
        (if r.Estimator.overflow_edges = r0.Reference.Route.overflow_edges then []
         else [ "route.overflow_edges" ]);
        (if same_bits r.Estimator.max_utilization r0.Reference.Route.max_utilization
         then []
         else [ "route.max_utilization" ]);
        (if r.Estimator.n_routed_nets = r0.Reference.Route.n_routed_nets then []
         else [ "route.n_routed_nets" ]);
      ]
  in
  let hpwl = ref [] in
  for nid = Design.n_nets dsg - 1 downto 0 do
    let expect =
      if (Design.net dsg nid).Mbr_netlist.Types.n_is_clock then 0.0
      else Reference.Route.net_hpwl pl nid
    in
    if not (same_bits (Estimator.hpwl st nid) expect) then
      hpwl := Printf.sprintf "route hpwl %d" nid :: !hpwl
  done;
  let cts =
    if Synth.synthesize pl = Reference.Cts.synthesize pl then [] else [ "cts tree" ]
  in
  route @ !hpwl @ cts

(* A snapshot from a fresh metrics state and everything in it that
   differs from the reference. *)
let snapshot_mismatches ?route_config eng lib =
  let st = Metrics.create_state ?route_config (Engine.placement eng) in
  let m = Metrics.collect st eng lib in
  let m0 = Reference.collect ?route_config eng lib in
  (m, metrics_mismatches m m0 @ pass_mismatches ?route_config (Engine.placement eng))

let check_snapshot ~what eng lib =
  match snapshot_mismatches eng lib with
  | _, [] -> ()
  | _, bad -> QCheck.Test.fail_reportf "%s: %s" what (String.concat "; " bad)

(* Seeded designs: every case runs tiny and D1–D5 at reduced scale
   with their seeds shifted, so each profile's structure (high-fanout
   reset/scan nets, D3's dense placement, D4's wide MBRs) meets the
   pass on every run. *)
let metrics_match_reference =
  QCheck.Test.make ~name:"Metrics.collect = pre-change reference (bits)"
    ~count:3
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let profiles =
        P.tiny ~seed:(seed mod 37)
        :: List.map
             (fun p -> { (P.scaled p 0.2) with P.seed = p.P.seed + seed })
             P.all
      in
      List.iter
        (fun p ->
          let g = G.generate p in
          let eng = Engine.build ~config:g.G.sta_config g.G.placement in
          check_snapshot ~what:(Printf.sprintf "%s seed %d" p.P.name seed) eng
            g.G.library)
        profiles;
      true)

(* ECO sequences: after every perturb + recompose the session's own
   before- and after-snapshots, both from its carried metrics state,
   and a fresh collect on its engine, all equal the reference —
   through cache invalidations, tombstoned registers, fresh scan hop
   nets and skewed timing. *)
let recompose_metrics_match_reference =
  QCheck.Test.make ~name:"recompose snapshots = pre-change reference (bits)"
    ~count:6
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p =
        if seed mod 2 = 0 then P.scaled (P.tiny ~seed:(seed mod 37)) 2.0
        else { (P.scaled P.d1 0.2) with P.seed = P.d1.P.seed + seed }
      in
      let g = G.generate p in
      let session =
        Flow.Session.create ~design:g.G.design ~placement:g.G.placement
          ~library:g.G.library ~sta_config:g.G.sta_config ()
      in
      let rng = Rng.create ((seed * 7) + 1) in
      let eng = Flow.Session.engine session in
      for round = 0 to 3 do
        if round > 0 then ignore (Eco.perturb rng g);
        (* the reference before-snapshot, taken as the stage after
           metrics-before starts: nothing has moved since *)
        let before0 = ref None in
        let on_progress (pr : Flow.progress) =
          if pr.Flow.pr_stage = "decompose" && Option.is_none !before0 then
            before0 := Some (Reference.collect eng g.G.library)
        in
        let r = Flow.Session.recompose ~on_progress session in
        let what = Printf.sprintf "%s seed %d round %d" p.P.name seed round in
        let compare which m m0 =
          match metrics_mismatches m m0 with
          | [] -> ()
          | bad ->
            QCheck.Test.fail_reportf "%s (%s-snapshot): %s" what which
              (String.concat "; " bad)
        in
        (match !before0 with
        | Some m0 -> compare "before" r.Flow.before m0
        | None -> QCheck.Test.fail_reportf "%s: no decompose stage" what);
        compare "after" r.Flow.after (Reference.collect eng g.G.library);
        check_snapshot ~what eng g.G.library
      done;
      true)

(* What differs between a carried route + power state brought up to
   date and, by their bits, a fresh state, the pre-change route
   estimate and the pre-change power loop: every result field, the
   grid's total demand, every net's HPWL, and the update's swept count
   against the stale count taken just before it. Returns the carried
   and fresh route results too. *)
let incremental_mismatches ~cfg rt pw pl =
  let dsg = Placement.design pl in
  let stale = Estimator.stale rt in
  let r = Estimator.update rt in
  let cts = Synth.synthesize pl in
  let p = Power.update ~config:cfg pw ~cts ~route:rt ~regs:(Design.registers dsg) in
  let ft = Estimator.create pl in
  let r1 = Estimator.update ft in
  let p1 = Power.estimate ~config:cfg ~cts pl in
  let r0 = Reference.Route.estimate pl in
  let p0 = Reference.power ~config:cfg ~cts pl in
  let f name x y =
    if same_bits x y then [] else [ Printf.sprintf "%s %h <> %h" name x y ]
  in
  let i name x y = if x = y then [] else [ Printf.sprintf "%s %d <> %d" name x y ] in
  let route what (wl, ovfl, util, routed) =
    f (what ^ " signal_wl") r.Estimator.signal_wl wl
    @ i (what ^ " overflow_edges") r.Estimator.overflow_edges ovfl
    @ f (what ^ " max_utilization") r.Estimator.max_utilization util
    @ i (what ^ " n_routed_nets") r.Estimator.n_routed_nets routed
  in
  let power what (q : Power.report) =
    f (what ^ " clock_power") p.Power.clock_power q.Power.clock_power
    @ f (what ^ " signal_power") p.Power.signal_power q.Power.signal_power
    @ f (what ^ " leakage_power") p.Power.leakage_power q.Power.leakage_power
    @ f (what ^ " total") p.Power.total q.Power.total
    @ f (what ^ " clock_fraction") p.Power.clock_fraction q.Power.clock_fraction
  in
  let hpwl =
    List.concat
      (List.init (Design.n_nets dsg) (fun nid ->
           f (Printf.sprintf "hpwl %d" nid) (Estimator.hpwl rt nid)
             (Estimator.hpwl ft nid)))
  in
  ( List.concat
      [
        route "fresh"
          ( r1.Estimator.signal_wl,
            r1.Estimator.overflow_edges,
            r1.Estimator.max_utilization,
            r1.Estimator.n_routed_nets );
        route "reference"
          ( r0.Reference.Route.signal_wl,
            r0.Reference.Route.overflow_edges,
            r0.Reference.Route.max_utilization,
            r0.Reference.Route.n_routed_nets );
        f "total_demand" (Estimator.total_demand rt) (Estimator.total_demand ft);
        hpwl;
        power "fresh" p1;
        power "reference" p0;
        i "nets_swept vs stale" r.Estimator.nets_swept stale;
      ],
    r,
    r1 )

(* One route + power state over D1 ×0.2, brought up to date after each
   single edit of every kind a recompose or an ECO makes, equals a
   fresh sweep by bits each time, and sweeps no more nets than the
   edit touched; results held across later updates keep their values;
   a default ECO batch closes the sequence. *)
let incremental_state_through_edits () =
  let g = G.generate (P.scaled P.d1 0.2) in
  let dsg = g.G.design and pl = g.G.placement and lib = g.G.library in
  let cfg = Power.config_of_sta g.G.sta_config in
  let rt = Estimator.create pl and pw = Power.create pl in
  let held = ref [] in
  let check ?max_swept what =
    let bad, r, r1 = incremental_mismatches ~cfg rt pw pl in
    Alcotest.(check (list string)) what [] bad;
    (match max_swept with
    | Some m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d nets swept, at most %d" what r.Estimator.nets_swept m)
        true
        (r.Estimator.nets_swept <= m)
    | None -> ());
    held := (what, r, r1) :: !held
  in
  check "first pass";
  (match !held with
  | (_, r, _) :: _ ->
    Alcotest.(check int) "a fresh state sweeps every net" (Design.n_nets dsg)
      r.Estimator.nets_swept
  | [] -> ());
  let pin r kind = Design.pin_of dsg r kind in
  let net_of pid = (Design.pin dsg pid).Types.p_net in
  let routed nid =
    (not (Design.net dsg nid).Types.n_is_clock)
    && List.length (Placement.net_pin_points pl nid) >= 2
  in
  (* live placed registers whose D pin sits on a routed net, with it *)
  let d_routed () =
    List.filter_map
      (fun r ->
        match Option.bind (pin r (Types.Pin_d 0)) net_of with
        | Some nid when Placement.is_placed pl r && routed nid -> Some (r, nid)
        | _ -> None)
      (Design.registers dsg)
  in
  let nth k = List.nth (d_routed ()) k in
  let n_pins r = List.length (Design.pins_of dsg r) in
  let ra, _ = nth 0 in
  Placement.set pl ra (Point.add (Placement.location pl ra) (Point.make 3.0 1.2));
  check ~max_swept:(n_pins ra) "move";
  let rb, _ = nth 1 in
  Placement.remove pl rb;
  check ~max_swept:(n_pins rb) "unplace";
  let rc, cell' =
    List.find_map
      (fun (r, _) ->
        let cur = (Design.reg_attrs dsg r).Types.lib_cell in
        List.find_opt
          (fun (c : Cell_lib.t) ->
            c.Cell_lib.scan = cur.Cell_lib.scan
            && c.Cell_lib.name <> cur.Cell_lib.name)
          (Library.cells_of lib ~func_class:cur.Cell_lib.func_class
             ~bits:cur.Cell_lib.bits)
        |> Option.map (fun c -> (r, c)))
      (d_routed ())
    |> Option.get
  in
  Design.retype_register dsg rc cell';
  check ~max_swept:(n_pins rc) "retype";
  let rd, _ = nth 2 in
  Design.remove_cell dsg rd;
  check ~max_swept:(n_pins rd) "remove_cell";
  Placement.remove pl rd;
  check ~max_swept:0 "unplace the removed cell";
  let re, ne = nth 3 in
  let clk = Option.get (Option.bind (pin re Types.Pin_clock) net_of) in
  let dff1 = List.hd (Library.cells_of lib ~func_class:"dff" ~bits:1) in
  let added =
    Design.add_register dsg "inc_reg"
      {
        Types.lib_cell = dff1;
        fixed = false;
        size_only = false;
        scan = None;
        gate_enable = None;
      }
      (Design.simple_conn ~d:[| Some ne |] ~q:[| None |] ~clock:clk)
  in
  check ~max_swept:2 "add a register (unplaced)";
  Placement.set pl added (Point.add (Placement.location pl re) (Point.make 4.0 2.4));
  check ~max_swept:2 "place it: its D net grows";
  let rf, _ = nth 4 and _, ng = nth 5 in
  let pf = Option.get (pin rf (Types.Pin_d 0)) in
  Design.disconnect dsg pf;
  check ~max_swept:1 "disconnect one pin";
  Design.connect dsg pf ng;
  check ~max_swept:1 "connect it to another net";
  let e = Design.add_net dsg "inc_empty" in
  check ~max_swept:1 "a new, empty net (read as never swept)";
  Design.connect dsg pf e;
  check ~max_swept:2 "one pin onto the new net";
  Design.connect dsg (Option.get (pin added (Types.Pin_q 0))) e;
  check ~max_swept:1 "a second: the new net routes";
  let two =
    List.find
      (fun nid ->
        routed nid
        && List.length (Placement.net_pin_points pl nid) = 2
        && List.exists
             (fun (_, cid, _) ->
               match (Design.cell dsg cid).Types.c_kind with
               | Types.Register _ -> true
               | _ -> false)
             (Placement.net_pin_points pl nid))
      (List.init (Design.n_nets dsg) Fun.id)
  in
  let victim =
    List.find_map
      (fun (_, cid, _) ->
        match (Design.cell dsg cid).Types.c_kind with
        | Types.Register _ -> Some cid
        | _ -> None)
      (Placement.net_pin_points pl two)
    |> Option.get
  in
  Placement.remove pl victim;
  check ~max_swept:(n_pins victim) "a net drops below two placed pins";
  Alcotest.(check bool) "it is no longer routed" false (routed two);
  ignore (Eco.perturb (Rng.create 5) g);
  check "a default ECO batch";
  List.iter
    (fun (what, (r : Estimator.result), (r1 : Estimator.result)) ->
      Alcotest.(check (list string))
        (what ^ ": held result keeps its values")
        []
        (List.concat
           [
             (if same_bits r.Estimator.signal_wl r1.Estimator.signal_wl then []
              else [ "signal_wl" ]);
             (if r.Estimator.overflow_edges = r1.Estimator.overflow_edges then []
              else [ "overflow_edges" ]);
             (if same_bits r.Estimator.max_utilization r1.Estimator.max_utilization
              then []
              else [ "max_utilization" ]);
             (if r.Estimator.n_routed_nets = r1.Estimator.n_routed_nets then []
              else [ "n_routed_nets" ]);
           ]))
    !held

(* A congested design: a tight routing grid puts demand over capacity,
   so overflow counting and max utilisation are compared where they
   are non-trivial, not only at 0. *)
let congested_matches_reference () =
  let g = G.generate (P.scaled P.d3 0.3) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let route_config = { Estimator.gcell = 8.0; cap_h = 4.0; cap_v = 3.0 } in
  let m, bad = snapshot_mismatches ~route_config eng g.G.library in
  Alcotest.(check (list string)) "no field differs" [] bad;
  Alcotest.(check bool) "overflow present" true (m.Metrics.ovfl > 0)

(* ---- scan-chain order ---- *)

(* The partitions whose order differs between [Scan_stitch.chain_order]
   and the pre-change list walk, members in ascending id order. *)
let chain_order_mismatches (g : G.t) =
  let dsg = g.G.design in
  let parts = Hashtbl.create 8 in
  List.iter
    (fun cid ->
      match (Design.reg_attrs dsg cid).Types.scan with
      | Some s ->
        let l = Option.value (Hashtbl.find_opt parts s.Types.partition) ~default:[] in
        Hashtbl.replace parts s.Types.partition (cid :: l)
      | None -> ())
    (Design.registers dsg);
  Hashtbl.fold
    (fun p members acc ->
      let members = List.rev members in
      if
        Scan_stitch.chain_order g.G.placement members
        = Scan_reference.chain_order g.G.placement members
      then acc
      else p :: acc)
    parts []

(* On a generated design; then with every register's corner snapped to
   a 10 µm grid, so equal distances (ties) are everywhere, and one
   register in eight unplaced. *)
let chain_order_matches_reference =
  QCheck.Test.make ~name:"chain order = pre-change walk (D1-D5, tiny, flat)" ~count:14
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let profile =
        match seed mod 7 with
        | 5 -> P.tiny ~seed
        | 6 -> P.flat ~seed
        | k ->
          let p = List.nth P.all k in
          { (P.scaled p 0.4) with P.seed = p.P.seed + seed }
      in
      let g = G.generate profile in
      let check what =
        match chain_order_mismatches g with
        | [] -> ()
        | p :: _ ->
          QCheck.Test.fail_reportf "%s %s: partition %d orders differently" profile.P.name
            what p
      in
      check "as generated";
      let rng = Rng.create seed in
      let snap v = 10.0 *. Float.round (v /. 10.0) in
      List.iter
        (fun cid ->
          if Rng.int rng 8 = 0 then Placement.remove g.G.placement cid
          else
            match Placement.location_opt g.G.placement cid with
            | Some { Point.x; y } -> Placement.set g.G.placement cid (Point.make (snap x) (snap y))
            | None -> ())
        (Design.registers g.G.design);
      check "snapped";
      true)

let () =
  Alcotest.run "mbr.equivalence"
    [
      ( "candidate",
        [
          Alcotest.test_case "candidate stream = pre-change reference (bits)"
            `Quick stream_matches_reference;
          Alcotest.test_case "area rule at the rounding edge = reference"
            `Quick rounding_row_matches_reference;
        ] );
      ( "skew",
        [
          QCheck_alcotest.to_alcotest worklist_skew_matches_full_sweep;
          QCheck_alcotest.to_alcotest batched_update_skews_matches_analyze;
        ] );
      ( "corners",
        [ QCheck_alcotest.to_alcotest unit_corner_matches_default ] );
      ( "plan",
        [
          QCheck_alcotest.to_alcotest plan_patch_matches_fresh;
          Alcotest.test_case "refresh patches the plan once" `Quick
            refresh_patches_once;
          Alcotest.test_case "add/remove churn compacts, stays exact" `Quick
            churn_compacts;
          Alcotest.test_case "a patch follows its dirty set" `Quick
            patch_follows_dirty_set;
        ] );
      ("sta", [ QCheck_alcotest.to_alcotest timing_matches_reference ]);
      ( "qor",
        [
          QCheck_alcotest.to_alcotest metrics_match_reference;
          QCheck_alcotest.to_alcotest recompose_metrics_match_reference;
          Alcotest.test_case "congested design = reference" `Quick
            congested_matches_reference;
          Alcotest.test_case "carried state = fresh, edit by edit" `Quick
            incremental_state_through_edits;
        ] );
      ("scan", [ QCheck_alcotest.to_alcotest chain_order_matches_reference ]);
    ]
