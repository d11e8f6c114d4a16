(* Parallel-allocate determinism: Allocate.run on a domain pool must
   return bit-identically the same selection as the serial path, for
   every allocator mode, on hand-built graphs and on randomly generated
   designs (the acceptance bar for running the per-block ILP fan-out in
   production). Also covers the solve_block/reduce decomposition. *)

module Allocate = Mbr_core.Allocate
module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Spatial = Mbr_core.Spatial
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Presets = Mbr_liberty.Presets
module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Flow = Mbr_core.Flow
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let lib = Presets.default ()

let modes = [ ("ilp", `Ilp); ("greedy", `Greedy_share); ("clique", `Clique) ]

(* everything except the timing histogram, which measures rather than
   decides *)
let key (s : Allocate.selection) =
  ( s.Allocate.merges,
    s.Allocate.kept,
    s.Allocate.cost,
    s.Allocate.n_blocks,
    s.Allocate.n_candidates,
    s.Allocate.all_optimal )

let row_graph n =
  let infos =
    Array.init n (fun i ->
        let x = 3.0 *. float_of_int i in
        let footprint = Rect.make ~lx:x ~ly:0.0 ~hx:(x +. 1.4) ~hy:1.2 in
        Compat.
          {
            cid = 1000 + i;
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
            feasible = Rect.expand footprint 30.0;
            center = Rect.center footprint;
          })
  in
  let g = Csr.Builder.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Csr.Builder.add_edge g i j
    done
  done;
  { Compat.adj = Csr.Builder.finish g; infos }

let index_of (graph : Compat.graph) =
  let idx = Spatial.create () in
  Array.iter
    (fun i -> Spatial.add idx i.Compat.cid i.Compat.center)
    graph.Compat.infos;
  idx

let run_with_jobs ~mode ~jobs ?(bound = 30) graph ~lib ~blocker_index =
  let config =
    { Allocate.default_config with Allocate.partition_bound = bound }
  in
  Allocate.run ~mode ~config ~jobs graph ~lib ~blocker_index

let test_row_graphs_all_modes () =
  (* bound 5 so even small rows produce several blocks to fan out *)
  List.iter
    (fun n ->
      let graph = row_graph n in
      let idx = index_of graph in
      List.iter
        (fun (mname, mode) ->
          let serial = run_with_jobs ~mode ~jobs:1 ~bound:5 graph ~lib ~blocker_index:idx in
          List.iter
            (fun jobs ->
              let par =
                run_with_jobs ~mode ~jobs ~bound:5 graph ~lib ~blocker_index:idx
              in
              check
                (Printf.sprintf "n=%d mode=%s jobs=%d identical" n mname jobs)
                true
                (key par = key serial))
            [ 2; 4 ])
        modes)
    [ 0; 1; 7; 23; 40 ]

let test_solve_block_matches_run () =
  (* running solve_block + reduce by hand equals the allocator *)
  let graph = row_graph 12 in
  let idx = index_of graph in
  let bound = 6 in
  let position i = graph.Compat.infos.(i).Compat.center in
  let blocks =
    Mbr_graph.Kpart.partition ~bound graph.Compat.adj ~position
  in
  let config =
    { Allocate.default_config with Allocate.partition_bound = bound }
  in
  let results =
    Array.of_list
      (List.map
         (fun block ->
           Allocate.solve_block config graph ~lib
             ~blockers:(Candidate.blockers graph ~block idx)
             ~block)
         blocks)
  in
  let manual = Allocate.reduce ~mode:`Ilp results in
  let auto =
    run_with_jobs ~mode:`Ilp ~jobs:1 ~bound graph ~lib ~blocker_index:idx
  in
  check "manual pipeline = run" true (key manual = key auto);
  check "block results carry candidates" true
    (Array.for_all (fun r -> r.Allocate.block_candidates > 0) results);
  check "block times non-negative" true
    (Array.for_all (fun r -> r.Allocate.solve_time_s >= 0.0) results)

let test_time_stats_sane () =
  let graph = row_graph 24 in
  let sel =
    run_with_jobs ~mode:`Ilp ~jobs:2 ~bound:6 graph ~lib
      ~blocker_index:(index_of graph)
  in
  let bt = sel.Allocate.block_times in
  check "total >= max" true (bt.Allocate.total_s >= bt.Allocate.max_s);
  check "max >= mean" true (bt.Allocate.max_s >= bt.Allocate.mean_s);
  check "mean >= 0" true (bt.Allocate.mean_s >= 0.0);
  let empty = run_with_jobs ~mode:`Ilp ~jobs:1 (row_graph 0) ~lib
      ~blocker_index:(Spatial.create ()) in
  check "no blocks -> zero stats" true
    (empty.Allocate.block_times = { Allocate.total_s = 0.0; mean_s = 0.0; max_s = 0.0 })

(* The flow reports the fan-out it was asked for, and refuses a count
   below 1 instead of clamping it. *)
let test_flow_alloc_jobs () =
  let run jobs =
    let g = G.generate (P.tiny ~seed:7) in
    Flow.run ~options:{ Flow.default_options with Flow.jobs }
      ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  Alcotest.(check int) "alloc_jobs" 2 (run (Some 2)).Flow.alloc_jobs;
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Flow.Session.create: jobs < 1") (fun () ->
      ignore (run (Some 0)))

(* ---- qcheck: random generated designs, all three modes ---- *)

let design_inputs seed =
  let g = G.generate (P.tiny ~seed) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let graph = Compat.build_graph eng g.G.library in
  let idx = Spatial.create () in
  List.iter
    (fun cid ->
      if Placement.is_placed g.G.placement cid then
        Spatial.add idx cid (Placement.center g.G.placement cid))
    (Design.registers g.G.design);
  (graph, g.G.library, idx)

let prop_parallel_equals_serial =
  QCheck2.Test.make ~count:8
    ~name:"parallel run = serial (random designs, all modes)"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let graph, lib, idx = design_inputs seed in
      List.for_all
        (fun (_, mode) ->
          let serial = run_with_jobs ~mode ~jobs:1 graph ~lib ~blocker_index:idx in
          let par = run_with_jobs ~mode ~jobs:3 graph ~lib ~blocker_index:idx in
          key par = key serial)
        modes)

let () =
  Alcotest.run "mbr_core.allocate_parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "row graphs, all modes" `Quick
            test_row_graphs_all_modes;
          Alcotest.test_case "solve_block + reduce = run" `Quick
            test_solve_block_matches_run;
          Alcotest.test_case "time stats sane" `Quick test_time_stats_sane;
          Alcotest.test_case "flow reports alloc jobs" `Quick test_flow_alloc_jobs;
        ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest ~long:true prop_parallel_equals_serial ] );
    ]
