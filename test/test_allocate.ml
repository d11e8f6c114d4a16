(* Tests for Mbr_core.Allocate: exact-cover invariants, ILP-vs-greedy
   ordering (Fig. 6's premise), and partition-bound behaviour, on both
   hand-built graphs and a generated design. *)

module Allocate = Mbr_core.Allocate
module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Spatial = Mbr_core.Spatial
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Presets = Mbr_liberty.Presets
module Design = Mbr_netlist.Design
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let lib = Presets.default ()

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

(* the allocator on a fresh cache: every block is solved *)
let allocate ?mode ?config graph ~lib ~blocker_index =
  fst
    (Allocate.run_cached ?mode ?config (Allocate.create_cache ()) graph ~lib
       ~blocker_index)

let index_of graph =
  let idx = Spatial.create () in
  Array.iter (fun i -> Spatial.add idx i.Compat.cid i.Compat.center) graph.Compat.infos;
  idx

let exact_cover graph sel =
  let n = Array.length graph.Compat.infos in
  let covered = Array.make n 0 in
  List.iter
    (fun (c : Candidate.t) ->
      List.iter (fun v -> covered.(v) <- covered.(v) + 1) c.Candidate.members)
    sel.Allocate.merges;
  List.iter (fun v -> covered.(v) <- covered.(v) + 1) sel.Allocate.kept;
  Array.for_all (fun k -> k = 1) covered

let test_exact_cover_small () =
  let graph = row_graph 6 in
  let sel = allocate graph ~lib ~blocker_index:(index_of graph) in
  check "exact cover" true (exact_cover graph sel);
  check "optimal" true sel.Allocate.all_optimal

let test_full_merge_of_eight () =
  (* 8 clean 1-bit registers in a row tile into one 8-bit MBR *)
  let graph = row_graph 8 in
  let sel = allocate graph ~lib ~blocker_index:(index_of graph) in
  checki "one merge" 1 (List.length sel.Allocate.merges);
  checki "nothing kept" 0 (List.length sel.Allocate.kept);
  (match sel.Allocate.merges with
  | [ m ] -> checki "eight members" 8 (List.length m.Candidate.members)
  | _ -> Alcotest.fail "single merge expected")

let test_ilp_never_worse_than_greedy () =
  List.iter
    (fun n ->
      let graph = row_graph n in
      let idx = index_of graph in
      let ilp = allocate ~mode:`Ilp graph ~lib ~blocker_index:idx in
      let greedy = allocate ~mode:`Greedy_share graph ~lib ~blocker_index:idx in
      let regs sel =
        List.length sel.Allocate.merges + List.length sel.Allocate.kept
      in
      check "greedy also exact cover" true (exact_cover graph greedy);
      check "ILP cost <= greedy cost" true (ilp.Allocate.cost <= greedy.Allocate.cost +. 1e-9);
      check "ILP register count <= greedy" true (regs ilp <= regs greedy))
    [ 3; 5; 8; 11; 16 ]

let test_partition_bound_respected () =
  let graph = row_graph 40 in
  let cfg = { Allocate.default_config with Allocate.partition_bound = 10 } in
  let sel = allocate ~config:cfg graph ~lib ~blocker_index:(index_of graph) in
  check "multiple blocks" true (sel.Allocate.n_blocks >= 4);
  check "still exact cover" true (exact_cover graph sel);
  List.iter
    (fun (c : Candidate.t) ->
      check "merge within a block" true (List.length c.Candidate.members <= 10))
    sel.Allocate.merges

let test_bound_range () =
  let graph = row_graph 5 in
  let run bound =
    allocate
      ~config:{ Allocate.default_config with Allocate.partition_bound = bound }
      graph ~lib ~blocker_index:(index_of graph)
  in
  List.iter
    (fun bound ->
      match run bound with
      | _ -> Alcotest.failf "partition_bound %d was accepted" bound
      | exception Invalid_argument _ -> ())
    [ 0; Candidate.max_block_size + 1 ];
  check "the widest bound runs" true
    (exact_cover graph (run Candidate.max_block_size))

let test_empty_graph () =
  let graph = row_graph 0 in
  let sel = allocate graph ~lib ~blocker_index:(index_of graph) in
  checki "no merges" 0 (List.length sel.Allocate.merges);
  checki "nothing kept" 0 (List.length sel.Allocate.kept)

let test_isolated_nodes_kept () =
  let infos = (row_graph 3).Compat.infos in
  (* no edges at all *)
  let graph = { Compat.adj = Csr.Builder.(finish (create 3)); infos } in
  let sel = allocate graph ~lib ~blocker_index:(index_of graph) in
  checki "no merges possible" 0 (List.length sel.Allocate.merges);
  Alcotest.(check (list int)) "all kept" [ 0; 1; 2 ] sel.Allocate.kept

(* ---- generated design ---- *)

let test_generated_design_ilp_beats_greedy () =
  let g = G.generate (P.tiny ~seed:31) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let graph = Compat.build_graph eng g.G.library in
  let idx = Spatial.create () in
  List.iter
    (fun cid ->
      if Placement.is_placed g.G.placement cid then
        Spatial.add idx cid (Placement.center g.G.placement cid))
    (Design.registers g.G.design);
  let ilp = allocate ~mode:`Ilp graph ~lib:g.G.library ~blocker_index:idx in
  let greedy = allocate ~mode:`Greedy_share graph ~lib:g.G.library ~blocker_index:idx in
  let regs sel = List.length sel.Allocate.merges + List.length sel.Allocate.kept in
  check "exact cover (ilp)" true (exact_cover graph ilp);
  check "exact cover (greedy)" true (exact_cover graph greedy);
  check "Fig.6 direction" true (regs ilp <= regs greedy);
  check "some merges happen" true (List.length ilp.Allocate.merges > 0)

let () =
  Alcotest.run "mbr_core.allocate"
    [
      ( "invariants",
        [
          Alcotest.test_case "exact cover" `Quick test_exact_cover_small;
          Alcotest.test_case "eight into one" `Quick test_full_merge_of_eight;
          Alcotest.test_case "partition bound" `Quick test_partition_bound_respected;
          Alcotest.test_case "bound range" `Quick test_bound_range;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "isolated kept" `Quick test_isolated_nodes_kept;
        ] );
      ( "ilp_vs_greedy",
        [
          Alcotest.test_case "rows" `Quick test_ilp_never_worse_than_greedy;
          Alcotest.test_case "generated design" `Quick
            test_generated_design_ilp_beats_greedy;
        ] );
    ]
