(* ECO sessions: Flow.Session.recompose must be indistinguishable from
   throwing everything away and re-running Flow.run on the same mutated
   design — the PR 1 refresh-vs-fresh STA property, one level up.

   The comparison protocol exploits determinism end to end: two
   identically-seeded generated designs start identical; each round
   applies identically-seeded Eco.perturb batches to both copies, then
   copy A is advanced by the persistent session's recompose and copy B
   by a from-scratch Flow.run. Both pipelines are deterministic, so the
   copies stay in lockstep round after round — any divergence in the
   results is a bug in the incremental path. Timing (WNS, TNS, every
   corner row) is compared by its bits; the ILP cost keeps a 1e-6
   tolerance. *)

module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Corner = Mbr_sta.Corner
module Spatial = Mbr_core.Spatial
module Compat = Mbr_core.Compat
module Allocate = Mbr_core.Allocate
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng

let close a b =
  a = b || (Float.is_finite a && Float.is_finite b && Float.abs (a -. b) <= 1e-6)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let profile seed = P.scaled (P.tiny ~seed) 0.5

let options_of ~mode ~jobs =
  { Flow.default_options with Flow.mode; jobs = Some jobs }

let blocker_index_of pl =
  let dsg = Placement.design pl in
  let index = Spatial.create () in
  List.iter
    (fun cid ->
      if Placement.is_placed pl cid then
        Spatial.add index cid (Placement.center pl cid))
    (Design.registers dsg);
  index

(* ---- Allocate.run_cached ---- *)

(* [sel] picks exactly [expected]'s covers: cost, kept registers and
   every merge's members and weight. *)
let check_same_selection (expected : Allocate.selection)
    (sel : Allocate.selection) =
  Alcotest.(check (float 0.0)) "cost" expected.Allocate.cost sel.Allocate.cost;
  Alcotest.(check (list int)) "kept" expected.Allocate.kept sel.Allocate.kept;
  Alcotest.(check int) "merge count"
    (List.length expected.Allocate.merges)
    (List.length sel.Allocate.merges);
  List.iter2
    (fun (a : Mbr_core.Candidate.t) (b : Mbr_core.Candidate.t) ->
      Alcotest.(check (list int)) "members" a.members b.members;
      Alcotest.(check (list int)) "member cids" a.member_cids b.member_cids;
      Alcotest.(check (float 0.0)) "weight" a.weight b.weight)
    expected.Allocate.merges sel.Allocate.merges

(* A warm cache picks what a fresh cache does: total reuse on an
   unchanged graph, a total miss once every register's slack drifts
   (the content key sees slacks, not just member cids), and identical
   selections every time. *)
let test_run_cached_identity () =
  let g = G.generate (profile 3) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let graph = Compat.build_graph eng g.G.library in
  let index = blocker_index_of g.G.placement in
  let fresh graph =
    fst
      (Allocate.run_cached (Allocate.create_cache ()) graph ~lib:g.G.library
         ~blocker_index:index)
  in
  let plain = fresh graph in
  let cache = Allocate.create_cache () in
  let cold, s_cold =
    Allocate.run_cached cache graph ~lib:g.G.library ~blocker_index:index
  in
  Alcotest.(check int) "cold: all resolved" plain.Allocate.n_blocks
    s_cold.Allocate.blocks_resolved;
  Alcotest.(check int) "cold: none reused" 0 s_cold.Allocate.blocks_reused;
  let hit, s_hit =
    Allocate.run_cached cache graph ~lib:g.G.library ~blocker_index:index
  in
  Alcotest.(check int) "hit: none resolved" 0 s_hit.Allocate.blocks_resolved;
  Alcotest.(check int) "hit: all reused" plain.Allocate.n_blocks
    s_hit.Allocate.blocks_reused;
  Alcotest.(check int) "cache sized to the run" plain.Allocate.n_blocks
    (Allocate.cache_size cache);
  List.iter (check_same_selection plain) [ cold; hit ];
  let drifted =
    {
      graph with
      Compat.infos =
        Array.map
          (fun (i : Compat.reg_info) ->
            { i with Compat.d_slack = i.Compat.d_slack +. 0.5 })
          graph.Compat.infos;
    }
  in
  let plain' = fresh drifted in
  let miss, s_miss =
    Allocate.run_cached cache drifted ~lib:g.G.library ~blocker_index:index
  in
  Alcotest.(check int) "drift: none reused" 0 s_miss.Allocate.blocks_reused;
  Alcotest.(check int) "drift: all resolved" plain'.Allocate.n_blocks
    s_miss.Allocate.blocks_resolved;
  check_same_selection plain' miss

(* ---- Flow.Session counters ---- *)

let test_session_counters () =
  let g = G.generate (profile 7) in
  let session =
    Flow.Session.create ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let r1 = Flow.Session.recompose session in
  Alcotest.(check int) "first recompose reuses nothing" 0 r1.Flow.eco_blocks_reused;
  Alcotest.(check int) "first recompose resolves every block" r1.Flow.n_blocks
    r1.Flow.eco_blocks_resolved;
  Alcotest.(check int) "one recompose recorded" 1 (Flow.Session.recomposes session);
  let r2 = Flow.Session.recompose session in
  Alcotest.(check int) "counters cover the partition" r2.Flow.n_blocks
    (r2.Flow.eco_blocks_resolved + r2.Flow.eco_blocks_reused);
  Alcotest.(check bool) "compat refresh ran" true
    (Flow.Session.last_compat_stats session <> None)

(* A recompose with no intervening edits reaches a fixed point: once a
   previous recompose made no merges, the next one sees bit-identical
   register snapshots and must reuse every block. *)
let test_session_fixed_point_reuses_all () =
  let g = G.generate (profile 7) in
  let session =
    Flow.Session.create ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let rec converge n prev =
    if n = 0 then prev
    else
      let r = Flow.Session.recompose session in
      if r.Flow.n_merges = 0 && r.Flow.n_resized = 0 then r
      else converge (n - 1) r
  in
  let settled = converge 5 (Flow.Session.recompose session) in
  Alcotest.(check int) "composition converged" 0 settled.Flow.n_merges;
  let next = Flow.Session.recompose session in
  Alcotest.(check int) "fixed point: nothing resolved" 0
    next.Flow.eco_blocks_resolved;
  Alcotest.(check int) "fixed point: everything reused" next.Flow.n_blocks
    next.Flow.eco_blocks_reused

(* A localized ECO on a converged session re-solves some blocks but
   not all of them (the counters the bench sweep relies on). *)
let test_session_localized_eco_reuses_some () =
  let g = G.generate (P.tiny ~seed:19) in
  let session =
    Flow.Session.create ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  ignore (Flow.Session.recompose session);
  ignore (Flow.Session.recompose session);
  ignore (Flow.Session.recompose session);
  let rng = Rng.create 23 in
  ignore (Eco.perturb ~config:{ Eco.default_config with Eco.move_frac = 0.05 } rng g);
  let r = Flow.Session.recompose session in
  Alcotest.(check bool) "some blocks reused" true (r.Flow.eco_blocks_reused > 0);
  Alcotest.(check bool) "strictly fewer blocks resolved than exist" true
    (r.Flow.eco_blocks_resolved < r.Flow.n_blocks)

(* ---- ownership (the single-writer discipline) ---- *)

let test_session_ownership () =
  let g = G.generate (profile 11) in
  let session =
    Flow.Session.create ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  Alcotest.(check (option int)) "fresh session unowned" None
    (Flow.Session.owner_id session);
  Flow.Session.acquire session;
  Alcotest.(check bool) "re-acquiring one's own session" true
    (Flow.Session.try_acquire session);
  (* another domain must neither steal nor drive the held session *)
  let stolen, drove =
    Domain.join
      (Domain.spawn (fun () ->
           let stolen = Flow.Session.try_acquire session in
           let drove =
             match Flow.Session.recompose session with
             | _ -> true
             | exception Invalid_argument _ -> false
           in
           (stolen, drove)))
  in
  Alcotest.(check bool) "try_acquire from another domain" false stolen;
  Alcotest.(check bool) "recompose from another domain" false drove;
  (* the owner works as usual, then hands the session over *)
  ignore (Flow.Session.recompose session);
  Flow.Session.release session;
  Alcotest.(check bool) "released: other domain takes it and drives it" true
    (Domain.join
       (Domain.spawn (fun () ->
            Flow.Session.acquire session;
            let r = Flow.Session.recompose session in
            Flow.Session.release session;
            r.Flow.n_blocks >= 0)));
  (* releasing a session we no longer hold is a bug, loudly *)
  Alcotest.(check bool) "double release raises" true
    (match Flow.Session.release session with
    | () -> false
    | exception Invalid_argument _ -> true)

(* A deadline that has already passed cancels the recompose's solver
   work, yet the pass completes, the result is feasible, and — the
   service-level promise — the same session serves the next request
   as if nothing happened. *)
let test_cancelled_recompose_session_usable () =
  let g = G.generate (profile 13) in
  let session =
    Flow.Session.create ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let cancel = Mbr_util.Cancel.create ~timeout_s:0.0 () in
  let r1 = Flow.Session.recompose ~cancel session in
  Alcotest.(check bool) "reported cancelled" true r1.Flow.cancelled;
  Alcotest.(check bool) "still a complete pass" true (r1.Flow.n_blocks > 0);
  Alcotest.(check (option int)) "transient claim released" None
    (Flow.Session.owner_id session);
  (* the uncancelled rerun must match a from-scratch run on an
     identically-prepared twin: no cancelled-incumbent residue *)
  let r2 = Flow.Session.recompose session in
  Alcotest.(check bool) "not cancelled" false r2.Flow.cancelled;
  let gb = G.generate (profile 13) in
  let twin_session =
    Flow.Session.create ~design:gb.G.design ~placement:gb.G.placement
      ~library:gb.G.library ~sta_config:gb.G.sta_config ()
  in
  let t1 = Flow.Session.recompose ~cancel:(Mbr_util.Cancel.create ~timeout_s:0.0 ()) twin_session in
  Alcotest.(check bool) "twin cancelled too" true t1.Flow.cancelled;
  let t2 = Flow.Session.recompose twin_session in
  Alcotest.(check int) "same merges after recovery" t2.Flow.n_merges r2.Flow.n_merges;
  Alcotest.(check bool) "same cost after recovery" true
    (close t2.Flow.ilp_cost r2.Flow.ilp_cost);
  Alcotest.(check int) "same register count" t2.Flow.after.Metrics.total_regs
    r2.Flow.after.Metrics.total_regs

(* ---- cell names ---- *)

let live_names dsg =
  List.map
    (fun cid -> (Design.cell dsg cid).Mbr_netlist.Types.c_name)
    (Design.live_cells dsg)

(* Registers an ECO batch adds are named from the design, so batches
   that remove registers between additions never hand a name out
   twice (a duplicate breaks [Design.find_cell] and the netlist
   export). *)
let test_eco_names_unique () =
  let g = G.generate (P.scaled P.d1 0.4) in
  for seed = 8 to 11 do
    ignore (Eco.perturb (Rng.create seed) g)
  done;
  let rec dups = function
    | a :: (b :: _ as rest) -> if a = b then a :: dups rest else dups rest
    | _ -> []
  in
  Alcotest.(check (list string)) "duplicate live names" []
    (dups (List.sort compare (live_names g.G.design)))

(* Names depend only on the design's own history, never on what else
   ran in the process: two identical sessions (composition, decompose,
   ECO rounds) run back to back end with the same cell names. *)
let test_session_names_reproducible () =
  let run () =
    let g = G.generate (P.tiny ~seed:31) in
    let options = { Flow.default_options with Flow.decompose = true } in
    let session =
      Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
        ~library:g.G.library ~sta_config:g.G.sta_config ()
    in
    ignore (Flow.Session.recompose session);
    for round = 1 to 2 do
      ignore (Eco.perturb (Rng.create (100 + round)) g);
      ignore (Flow.Session.recompose session)
    done;
    live_names g.G.design
  in
  let first = run () in
  let has prefix =
    List.exists (fun n -> String.starts_with ~prefix n) first
  in
  Alcotest.(check bool) "runs name merged, split and ECO cells" true
    (has "mbr_" && has "split_" && has "eco_reg_");
  Alcotest.(check (list string)) "same names" first (run ())

(* ---- the equivalence property ---- *)

let compare_results ~seed ~round (ra : Flow.result) (rb : Flow.result) =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let ma = ra.Flow.after and mb = rb.Flow.after in
  if ma.Metrics.total_regs <> mb.Metrics.total_regs then
    fail "seed %d round %d: register count %d (session) vs %d (fresh)" seed
      round ma.Metrics.total_regs mb.Metrics.total_regs;
  if ra.Flow.n_merges <> rb.Flow.n_merges then
    fail "seed %d round %d: merges %d vs %d" seed round ra.Flow.n_merges
      rb.Flow.n_merges;
  if not (close ra.Flow.ilp_cost rb.Flow.ilp_cost) then
    fail "seed %d round %d: cost %g vs %g" seed round ra.Flow.ilp_cost
      rb.Flow.ilp_cost;
  if not (same_bits ma.Metrics.wns mb.Metrics.wns) then
    fail "seed %d round %d: wns %h vs %h" seed round ma.Metrics.wns
      mb.Metrics.wns;
  if not (same_bits ma.Metrics.tns mb.Metrics.tns) then
    fail "seed %d round %d: tns %h vs %h" seed round ma.Metrics.tns
      mb.Metrics.tns;
  if
    ra.Flow.eco_blocks_resolved + ra.Flow.eco_blocks_reused <> ra.Flow.n_blocks
  then
    fail "seed %d round %d: counters %d + %d do not cover %d blocks" seed round
      ra.Flow.eco_blocks_resolved ra.Flow.eco_blocks_reused ra.Flow.n_blocks;
  if ra.Flow.recover_rounds <> rb.Flow.recover_rounds then
    fail "seed %d round %d: recovery rounds %d vs %d" seed round
      ra.Flow.recover_rounds rb.Flow.recover_rounds;
  if ra.Flow.recover_splits <> rb.Flow.recover_splits then
    fail "seed %d round %d: recovery splits %d vs %d" seed round
      ra.Flow.recover_splits rb.Flow.recover_splits;
  (if List.length ma.Metrics.corners <> List.length mb.Metrics.corners then
     fail "seed %d round %d: %d corner rows (session) vs %d (fresh)" seed round
       (List.length ma.Metrics.corners)
       (List.length mb.Metrics.corners)
   else
     List.iter2
       (fun (na, wa, ta) (nb, wb, tb) ->
         if na <> nb || not (same_bits wa wb) || not (same_bits ta tb) then
           fail "seed %d round %d: corner %s wns %h tns %h vs %s wns %h tns %h"
             seed round na wa ta nb wb tb)
       ma.Metrics.corners mb.Metrics.corners);
  true

let recompose_equivalence =
  QCheck.Test.make ~name:"recompose = from-scratch run over random ECO batches"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let mode = if seed mod 2 = 0 then `Ilp else `Greedy_share in
      let jobs = if seed mod 4 < 2 then 1 else 4 in
      let options = options_of ~mode ~jobs in
      let gen_seed = seed mod 37 in
      let ga = G.generate (profile gen_seed) in
      let gb = G.generate (profile gen_seed) in
      let session =
        Flow.Session.create ~options ~design:ga.G.design
          ~placement:ga.G.placement ~library:ga.G.library
          ~sta_config:ga.G.sta_config ()
      in
      let fresh_run () =
        Flow.run ~options ~design:gb.G.design ~placement:gb.G.placement
          ~library:gb.G.library ~sta_config:gb.G.sta_config ()
      in
      let rounds = 1 + (seed mod 2) in
      let ok = ref true in
      (* round 0: identical inputs, session vs one-shot *)
      ok := !ok && compare_results ~seed ~round:0
                     (Flow.Session.recompose session)
                     (fresh_run ());
      for round = 1 to rounds do
        (* identically-seeded perturbations keep the copies in lockstep *)
        let batch_seed = (seed * 31) + round in
        ignore (Eco.perturb (Rng.create batch_seed) ga);
        ignore (Eco.perturb (Rng.create batch_seed) gb);
        ok :=
          !ok
          && compare_results ~seed ~round
               (Flow.Session.recompose session)
               (fresh_run ())
      done;
      !ok)

(* The equivalence must also hold when the session analyzes several
   corners and carries a recovery budget: the recovery loop's extra
   decompose rounds ride the incremental path (splits dirty blocks,
   re-solve only those), while the from-scratch run rebuilds the same
   state outright. Worst-corner victim picks, split placement, pinning
   and the per-corner QoR rows must all land identically — asserted by
   the recover_rounds / recover_splits / corner-row clauses of
   [compare_results]. The clock period is tightened so the derated
   corner has real violations and the recovery budget has work. *)
let multicorner_recompose_equivalence =
  QCheck.Test.make
    ~name:"multi-corner + recover: recompose = from-scratch run" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let corners =
        if seed mod 2 = 0 then [| Corner.typical; Corner.harsh |]
        else Corner.spread_set 0.25
      in
      let options =
        { Flow.default_options with
          Flow.corners;
          recover = 1 + (seed mod 3);
          jobs = Some (if seed mod 4 < 2 then 1 else 4)
        }
      in
      let gen_seed = seed mod 37 in
      let tighten g =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. 0.9 }
      in
      let ga = G.generate (profile gen_seed) in
      let gb = G.generate (profile gen_seed) in
      let session =
        Flow.Session.create ~options ~design:ga.G.design
          ~placement:ga.G.placement ~library:ga.G.library
          ~sta_config:(tighten ga) ()
      in
      let fresh_run () =
        Flow.run ~options ~design:gb.G.design ~placement:gb.G.placement
          ~library:gb.G.library ~sta_config:(tighten gb) ()
      in
      let ok = ref true in
      ok := !ok && compare_results ~seed ~round:0
                     (Flow.Session.recompose session)
                     (fresh_run ());
      for round = 1 to 1 + (seed mod 2) do
        let batch_seed = (seed * 53) + round in
        ignore (Eco.perturb (Rng.create batch_seed) ga);
        ignore (Eco.perturb (Rng.create batch_seed) gb);
        ok :=
          !ok
          && compare_results ~seed ~round
               (Flow.Session.recompose session)
               (fresh_run ())
      done;
      !ok)

let () =
  Alcotest.run "mbr_core.flow_eco"
    [
      ( "allocate-cache",
        [ Alcotest.test_case "run_cached identity + reuse" `Quick
            test_run_cached_identity ] );
      ( "session",
        [
          Alcotest.test_case "reuse counters" `Quick test_session_counters;
          Alcotest.test_case "fixed point reuses all blocks" `Quick
            test_session_fixed_point_reuses_all;
          Alcotest.test_case "localized ECO reuses some blocks" `Quick
            test_session_localized_eco_reuses_some;
          Alcotest.test_case "ownership discipline" `Quick
            test_session_ownership;
          Alcotest.test_case "cancelled recompose leaves session usable" `Quick
            test_cancelled_recompose_session_usable;
        ] );
      ( "names",
        [
          Alcotest.test_case "no duplicate live names after four ECO batches"
            `Quick test_eco_names_unique;
          Alcotest.test_case "identical sessions name cells identically"
            `Quick test_session_names_reproducible;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest recompose_equivalence;
          QCheck_alcotest.to_alcotest multicorner_recompose_equivalence;
        ] );
    ]
