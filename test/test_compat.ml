(* Tests for Mbr_core.Compat: the four §2 compatibility checks on
   hand-built register infos, plus graph construction on a generated
   design. *)

module Compat = Mbr_core.Compat
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Csr = Mbr_graph.Csr
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)

let cfg = Compat.default_config

let info ?(cls = "dff") ?(clock = 0) ?enable ?reset ?scan ?(d_slack = 50.0)
    ?(q_slack = 50.0) ?(at = (0.0, 0.0)) ?(feas = 10.0) cid =
  let x, y = at in
  let footprint = Rect.make ~lx:x ~ly:y ~hx:(x +. 2.0) ~hy:(y +. 1.2) in
  Compat.
    {
      cid;
      bits = 1;
      func_class = cls;
      clock;
      enable;
      reset;
      scan;
      drive_res = 2.0;
      d_slack;
      q_slack;
      footprint;
      feasible = Rect.expand footprint feas;
      center = Rect.center footprint;
    }

(* ---- functional ---- *)

let test_functional_same () =
  check "identical attrs" true
    (Compat.functionally_compatible (info 0) (info 1))

let test_functional_class_mismatch () =
  check "class" false
    (Compat.functionally_compatible (info 0) (info ~cls:"dffr" 1))

let test_functional_clock_mismatch () =
  check "clock" false (Compat.functionally_compatible (info 0) (info ~clock:5 1))

let test_functional_enable_mismatch () =
  check "enable" false
    (Compat.functionally_compatible (info ~enable:"en0" 0) (info ~enable:"en1" 1));
  check "enable vs none" false
    (Compat.functionally_compatible (info ~enable:"en0" 0) (info 1));
  check "same enable ok" true
    (Compat.functionally_compatible (info ~enable:"en0" 0) (info ~enable:"en0" 1))

let test_functional_reset_mismatch () =
  check "reset nets differ" false
    (Compat.functionally_compatible (info ~reset:3 0) (info ~reset:4 1));
  check "same reset" true
    (Compat.functionally_compatible (info ~reset:3 0) (info ~reset:3 1))

(* ---- scan ---- *)

let scan ?section partition = Types.{ partition; section }

let test_scan_both_unscanned () =
  check "ok" true (Compat.scan_compatible (info 0) (info 1))

let test_scan_mixed () =
  check "scan vs plain" false
    (Compat.scan_compatible (info ~scan:(scan 0) 0) (info 1))

let test_scan_partitions () =
  check "same partition" true
    (Compat.scan_compatible (info ~scan:(scan 1) 0) (info ~scan:(scan 1) 1));
  check "different partition" false
    (Compat.scan_compatible (info ~scan:(scan 0) 0) (info ~scan:(scan 1) 1))

let test_scan_ordered_sections () =
  let sec i pos = scan ~section:(i, pos) 0 in
  check "same section" true
    (Compat.scan_compatible (info ~scan:(sec 2 0) 0) (info ~scan:(sec 2 5) 1));
  check "different sections" false
    (Compat.scan_compatible (info ~scan:(sec 1 0) 0) (info ~scan:(sec 2 0) 1));
  check "section vs free" false
    (Compat.scan_compatible (info ~scan:(sec 1 0) 0) (info ~scan:(scan 0) 1))

(* ---- placement ---- *)

let test_placement_overlap () =
  check "near regions overlap" true
    (Compat.placement_compatible (info ~at:(0.0, 0.0) 0) (info ~at:(5.0, 0.0) 1));
  check "far regions do not" false
    (Compat.placement_compatible
       (info ~at:(0.0, 0.0) ~feas:1.0 0)
       (info ~at:(50.0, 0.0) ~feas:1.0 1))

(* ---- timing ---- *)

let test_timing_similar () =
  check "close slacks ok" true
    (Compat.timing_compatible cfg
       (info ~d_slack:40.0 ~q_slack:60.0 0)
       (info ~d_slack:60.0 ~q_slack:40.0 1))

let test_timing_magnitude_limit () =
  check "large D difference rejected" false
    (Compat.timing_compatible cfg
       (info ~d_slack:0.0 0)
       (info ~d_slack:(cfg.Compat.slack_diff_limit +. 50.0) 1));
  check "large Q difference rejected" false
    (Compat.timing_compatible cfg
       (info ~q_slack:0.0 0)
       (info ~q_slack:(cfg.Compat.slack_diff_limit +. 50.0) 1))

let test_timing_opposite_skew_pressure () =
  (* §2: positive D/negative Q must not merge with negative D/positive Q *)
  let wants_later = info ~d_slack:(-30.0) ~q_slack:40.0 0 in
  let wants_earlier = info ~d_slack:40.0 ~q_slack:(-30.0) 1 in
  check "opposite forces rejected" false
    (Compat.timing_compatible cfg wants_later wants_earlier);
  check "symmetric" false (Compat.timing_compatible cfg wants_earlier wants_later);
  (* both wanting later is fine (same skew direction) *)
  let also_later = info ~d_slack:(-40.0) ~q_slack:30.0 2 in
  check "same direction ok" true (Compat.timing_compatible cfg wants_later also_later)

let test_timing_infinite_slack_ok () =
  (* unconnected side imposes no constraint *)
  check "inf vs finite" true
    (Compat.timing_compatible cfg (info ~q_slack:infinity 0) (info ~q_slack:10.0 1))

(* ---- on a generated design ---- *)

let g = G.generate (P.tiny ~seed:77)

let eng = Engine.build ~config:g.G.sta_config g.G.placement

let graph = Compat.build_graph eng g.G.library

let test_graph_nodes_are_composable () =
  Array.iter
    (fun i ->
      check "composable" true
        (Compat.is_composable g.G.design g.G.library i.Compat.cid))
    graph.Compat.infos

let test_graph_edges_are_compatible () =
  let infos = graph.Compat.infos in
  List.iter
    (fun (a, b) ->
      check "edge passes all checks" true
        (Compat.compatible Compat.default_config infos.(a) infos.(b)))
    (Csr.edges graph.Compat.adj)

let test_fixed_not_composable () =
  let fixed =
    List.filter
      (fun cid ->
        let a = Design.reg_attrs g.G.design cid in
        a.Types.fixed || a.Types.size_only)
      (Design.registers g.G.design)
  in
  check "some pinned registers exist" true (fixed <> []);
  List.iter
    (fun cid ->
      check "pinned not composable" false
        (Compat.is_composable g.G.design g.G.library cid))
    fixed

let test_max_width_not_composable () =
  List.iter
    (fun cid ->
      let a = Design.reg_attrs g.G.design cid in
      if a.Types.lib_cell.Mbr_liberty.Cell.bits = 8 then
        check "8-bit cannot grow" false
          (Compat.is_composable g.G.design g.G.library cid))
    (Design.registers g.G.design)

let test_feasible_region_contains_footprint () =
  Array.iter
    (fun i ->
      check "footprint feasible" true
        (Rect.intersects i.Compat.feasible i.Compat.footprint))
    graph.Compat.infos

let test_feasible_region_bounded () =
  let cfg = Compat.default_config in
  Array.iter
    (fun i ->
      let cap = Rect.expand i.Compat.footprint (cfg.Compat.max_dist +. 1e-6) in
      check "within max_dist" true (Rect.contains_rect cap i.Compat.feasible))
    graph.Compat.infos

let test_reg_info_matches_engine () =
  Array.iter
    (fun i ->
      check "d slack matches engine" true
        (i.Compat.d_slack = Engine.reg_d_slack eng i.Compat.cid))
    graph.Compat.infos

(* The spatial-hash pruning must be exactly the brute-force all-pairs
   graph: the hash may only skip pairs that placement_compatible would
   reject anyway. The odd seeds shrink max_dist to 2 µm so register
   footprints dominate the bucket pitch — the regime where a pitch of
   bare [2 * max_dist] drops real edges across bucket boundaries. *)
let pruning_matches_brute_force =
  QCheck.Test.make ~name:"build_graph = brute-force all-pairs compatible"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 41)) 0.4) in
      let cfg =
        if seed mod 2 = 0 then Compat.default_config
        else { Compat.default_config with Compat.max_dist = 2.0 }
      in
      let eng = Engine.build ~config:g.G.sta_config g.G.placement in
      let graph = Compat.build_graph ~config:cfg eng g.G.library in
      let infos = graph.Compat.infos in
      let n = Array.length infos in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let expect = Compat.compatible cfg infos.(i) infos.(j) in
          let got = Csr.has_edge graph.Compat.adj i j in
          if expect <> got then begin
            ok := false;
            QCheck.Test.fail_reportf
              "seed %d: pair (%d, %d) cids (%d, %d): brute force %b, graph %b"
              seed i j infos.(i).Compat.cid infos.(j).Compat.cid expect got
          end
        done
      done;
      !ok)

(* Compat.refresh must rebuild exactly build_graph's structure — same
   node order, same edge set — after arbitrary ECO batches. Even rounds
   only move registers, so the composable set stays the same and only
   some snapshots change. *)
let moves_only =
  { Eco.default_config with Eco.retype_frac = 0.0; remove_frac = 0.0; add_frac = 0.0 }

let refresh_matches_fresh =
  QCheck.Test.make ~name:"refresh = fresh build over random ECO batches"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 41)) 0.5) in
      let eng = Engine.build ~config:g.G.sta_config g.G.placement in
      let prev = ref (Compat.build_graph eng g.G.library) in
      let rng = Rng.create ((seed * 13) + 5) in
      let rounds = 2 + (seed mod 3) in
      let ok = ref true in
      let cids (gr : Compat.graph) = Array.map (fun i -> i.Compat.cid) gr.Compat.infos in
      for round = 1 to rounds do
        let move_round = round mod 2 = 0 in
        ignore (Eco.perturb ?config:(if move_round then Some moves_only else None) rng g);
        let fresh = Compat.build_graph eng g.G.library in
        let refreshed, stats = Compat.refresh !prev eng g.G.library in
        if refreshed.Compat.infos <> fresh.Compat.infos then begin
          ok := false;
          QCheck.Test.fail_reportf "seed %d round %d: node mismatch" seed round
        end;
        if move_round && cids refreshed <> cids !prev then begin
          ok := false;
          QCheck.Test.fail_reportf "seed %d round %d: a move changed the node set"
            seed round
        end;
        let n = Array.length fresh.Compat.infos in
        if stats.Compat.nodes_total <> n then begin
          ok := false;
          QCheck.Test.fail_reportf "seed %d round %d: stats count %d <> %d"
            seed round stats.Compat.nodes_total n
        end;
        for v = 0 to n - 1 do
          if
            Csr.neighbors refreshed.Compat.adj v
            <> Csr.neighbors fresh.Compat.adj v
          then begin
            ok := false;
            QCheck.Test.fail_reportf
              "seed %d round %d: adjacency mismatch at node %d (cid %d)" seed
              round v fresh.Compat.infos.(v).Compat.cid
          end
        done;
        prev := refreshed
      done;
      !ok)

let () =
  Alcotest.run "mbr_core.compat"
    [
      ( "functional",
        [
          Alcotest.test_case "same" `Quick test_functional_same;
          Alcotest.test_case "class" `Quick test_functional_class_mismatch;
          Alcotest.test_case "clock" `Quick test_functional_clock_mismatch;
          Alcotest.test_case "enable" `Quick test_functional_enable_mismatch;
          Alcotest.test_case "reset" `Quick test_functional_reset_mismatch;
        ] );
      ( "scan",
        [
          Alcotest.test_case "both unscanned" `Quick test_scan_both_unscanned;
          Alcotest.test_case "mixed" `Quick test_scan_mixed;
          Alcotest.test_case "partitions" `Quick test_scan_partitions;
          Alcotest.test_case "ordered sections" `Quick test_scan_ordered_sections;
        ] );
      ( "placement",
        [ Alcotest.test_case "region overlap" `Quick test_placement_overlap ] );
      ( "timing",
        [
          Alcotest.test_case "similar" `Quick test_timing_similar;
          Alcotest.test_case "magnitude limit" `Quick test_timing_magnitude_limit;
          Alcotest.test_case "opposite skew pressure" `Quick
            test_timing_opposite_skew_pressure;
          Alcotest.test_case "infinite slack" `Quick test_timing_infinite_slack_ok;
        ] );
      ( "graph",
        [
          Alcotest.test_case "nodes composable" `Quick test_graph_nodes_are_composable;
          Alcotest.test_case "edges compatible" `Quick test_graph_edges_are_compatible;
          Alcotest.test_case "fixed not composable" `Quick test_fixed_not_composable;
          Alcotest.test_case "max width not composable" `Quick
            test_max_width_not_composable;
          Alcotest.test_case "feasible contains footprint" `Quick
            test_feasible_region_contains_footprint;
          Alcotest.test_case "feasible bounded" `Quick test_feasible_region_bounded;
          Alcotest.test_case "info matches engine" `Quick test_reg_info_matches_engine;
          QCheck_alcotest.to_alcotest pruning_matches_brute_force;
          QCheck_alcotest.to_alcotest refresh_matches_fresh;
        ] );
    ]
