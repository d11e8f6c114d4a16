(* Integration tests: the full Fig. 4 flow on generated designs. These
   assert the paper's qualitative claims — register count and clock
   capacitance drop, netlist/placement stay legal, timing and congestion
   do not degrade — plus option plumbing (greedy mode, skew off,
   incomplete off). *)

module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Allocate = Mbr_core.Allocate
module Candidate = Mbr_core.Candidate
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Point = Mbr_geom.Point
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let run ?(options = Flow.default_options) seed =
  let g = G.generate (P.tiny ~seed) in
  let r =
    Flow.run ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  (g, r)

let g0, r0 = run 2024

let b0 = r0.Flow.before

let a0 = r0.Flow.after

let test_registers_drop () =
  check "merges happened" true (r0.Flow.n_merges > 0);
  check "total registers drop" true (a0.Metrics.total_regs < b0.Metrics.total_regs);
  checki "counts reconcile"
    (b0.Metrics.total_regs - r0.Flow.n_regs_merged + r0.Flow.n_merges)
    a0.Metrics.total_regs

let test_composable_drop () =
  check "composable registers drop" true (a0.Metrics.comp_regs < b0.Metrics.comp_regs)

let test_clock_improves () =
  check "clock cap drops" true (a0.Metrics.clk_cap < b0.Metrics.clk_cap);
  check "clock wl not worse" true (a0.Metrics.clk_wl <= b0.Metrics.clk_wl +. 1e-6);
  check "buffer count not worse" true (a0.Metrics.clk_bufs <= b0.Metrics.clk_bufs)

let test_timing_not_degraded () =
  (* the paper's invariant: no added violations (ours also applies
     useful skew, so timing typically improves) *)
  check "tns not worse" true (a0.Metrics.tns >= b0.Metrics.tns -. 1e-6);
  check "failing endpoints not worse" true (a0.Metrics.failing <= b0.Metrics.failing)

let test_congestion_not_degraded () =
  check "overflow edges not worse" true (a0.Metrics.ovfl <= b0.Metrics.ovfl)

let test_wirelength_not_degraded () =
  check "signal wl not worse" true
    (a0.Metrics.other_wl <= b0.Metrics.other_wl *. 1.01)

let test_merge_displacement_bounded () =
  (* §3.2: composition should disturb the placement only locally — on
     average each MBR lands within the feasible-region scale of its
     members' centroid. An MBR's members are the registers that drove
     its Q nets before the run. *)
  let g = G.generate (P.tiny ~seed:2024) in
  let dsg = g.G.design and pl = g.G.placement in
  let q_nets cid =
    List.filter_map
      (fun pid ->
        match (Design.pin dsg pid).Types.p_kind, (Design.pin dsg pid).Types.p_net with
        | Types.Pin_q _, Some nid -> Some nid
        | _, _ -> None)
      (Design.pins_of dsg cid)
  in
  let driver_before = Hashtbl.create 256 in
  List.iter
    (fun cid ->
      if Placement.is_placed pl cid then
        List.iter
          (fun nid -> Hashtbl.replace driver_before nid (cid, Placement.center pl cid))
          (q_nets cid))
    (Design.registers dsg);
  let r =
    Flow.run ~design:dsg ~placement:pl ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  let displacement mbr =
    match
      List.sort_uniq compare (List.filter_map (Hashtbl.find_opt driver_before) (q_nets mbr))
    with
    | [] -> 0.0
    | members ->
      Point.manhattan (Point.centroid (List.map snd members)) (Placement.center pl mbr)
  in
  let total = List.fold_left (fun acc cid -> acc +. displacement cid) 0.0 r.Flow.new_mbrs in
  check "some displacement measured" true (total > 0.0);
  let avg = total /. float_of_int (max 1 r.Flow.n_merges) in
  check "average displacement local" true
    (avg <= 2.0 *. Mbr_core.Compat.default_config.Mbr_core.Compat.max_dist)

let test_netlist_stays_legal () =
  Alcotest.(check (list string)) "valid" [] (Design.validate g0.G.design);
  checki "no register overlaps" 0
    (List.length (Placement.overlapping_registers g0.G.placement))

let test_new_mbrs_live_and_placed () =
  List.iter
    (fun cid ->
      check "live" true (not (Design.cell g0.G.design cid).Types.c_dead);
      check "placed" true (Placement.is_placed g0.G.placement cid))
    r0.Flow.new_mbrs;
  checki "one per merge" r0.Flow.n_merges (List.length r0.Flow.new_mbrs)

let test_fixed_registers_untouched () =
  (* every fixed register of the 'before' design must still exist *)
  List.iter
    (fun cid ->
      let a = Design.reg_attrs g0.G.design cid in
      check "fixed never merged" true (not a.Types.fixed || true))
    (Design.registers g0.G.design);
  (* stronger: no fixed register can be dead unless it was never fixed *)
  let g1 = G.generate (P.tiny ~seed:2024) in
  let fixed_before =
    List.filter
      (fun cid -> (Design.reg_attrs g1.G.design cid).Types.fixed)
      (Design.registers g1.G.design)
  in
  let _ =
    Flow.run ~design:g1.G.design ~placement:g1.G.placement ~library:g1.G.library
      ~sta_config:g1.G.sta_config ()
  in
  List.iter
    (fun cid ->
      check "fixed cell still live" true (not (Design.cell g1.G.design cid).Types.c_dead))
    fixed_before

let test_greedy_mode_worse_or_equal () =
  let _, r_ilp = run 555 in
  let options = { Flow.default_options with Flow.mode = `Greedy_share } in
  let _, r_greedy = run ~options 555 in
  check "Fig.6: ILP keeps fewer registers" true
    (r_ilp.Flow.after.Metrics.total_regs <= r_greedy.Flow.after.Metrics.total_regs)

let test_skew_disabled () =
  let options = { Flow.default_options with Flow.skew = None; resize = false } in
  let _, r = run ~options 777 in
  check "no skew report" true (r.Flow.skew_report = None);
  checki "no resizes" 0 r.Flow.n_resized

let test_incomplete_disabled () =
  let options =
    {
      Flow.default_options with
      Flow.allocate =
        {
          Allocate.default_config with
          Allocate.candidate =
            { Candidate.default_config with Candidate.allow_incomplete = false };
        };
    }
  in
  let _, r = run ~options 888 in
  checki "no incomplete merges" 0 r.Flow.n_incomplete

(* With skew off nothing moves timing between passes, so a recompose
   right after another measures, in its metrics-before pass, exactly
   the previous metrics-after: every field, floats by their bits
   (marshalled without sharing, a float is its 8 bytes). *)
let test_metrics_before_is_previous_after () =
  let g = G.generate (P.tiny ~seed:606) in
  let options = { Flow.default_options with Flow.skew = None } in
  let session =
    Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let r1 = Flow.Session.recompose session in
  let r2 = Flow.Session.recompose session in
  let bytes (m : Metrics.t) = Marshal.to_string m [ Marshal.No_sharing ] in
  check
    (Format.asprintf "before@.  %a@.= previous after@.  %a" Metrics.pp_row
       r2.Flow.before Metrics.pp_row r1.Flow.after)
    true
    (bytes r2.Flow.before = bytes r1.Flow.after)

let test_deterministic () =
  let _, ra = run 42 in
  let _, rb = run 42 in
  checki "same merges" ra.Flow.n_merges rb.Flow.n_merges;
  check "same cost" true (ra.Flow.ilp_cost = rb.Flow.ilp_cost);
  checki "same final registers" ra.Flow.after.Metrics.total_regs
    rb.Flow.after.Metrics.total_regs

let test_flow_idempotent_second_pass_smaller () =
  (* running the flow again on the already-composed design merges less *)
  let g, r1 = run 4242 in
  let r2 =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  check "second pass finds fewer merges" true (r2.Flow.n_merges <= r1.Flow.n_merges);
  Alcotest.(check (list string)) "still valid" [] (Design.validate g.G.design)

let () =
  Alcotest.run "mbr_core.flow"
    [
      ( "paper_claims",
        [
          Alcotest.test_case "registers drop" `Quick test_registers_drop;
          Alcotest.test_case "composable drop" `Quick test_composable_drop;
          Alcotest.test_case "clock improves" `Quick test_clock_improves;
          Alcotest.test_case "timing not degraded" `Quick test_timing_not_degraded;
          Alcotest.test_case "congestion not degraded" `Quick
            test_congestion_not_degraded;
          Alcotest.test_case "wirelength not degraded" `Quick
            test_wirelength_not_degraded;
          Alcotest.test_case "displacement bounded" `Quick
            test_merge_displacement_bounded;
        ] );
      ( "structure",
        [
          Alcotest.test_case "netlist legal" `Quick test_netlist_stays_legal;
          Alcotest.test_case "new MBRs live+placed" `Quick test_new_mbrs_live_and_placed;
          Alcotest.test_case "fixed untouched" `Quick test_fixed_registers_untouched;
        ] );
      ( "options",
        [
          Alcotest.test_case "greedy mode" `Quick test_greedy_mode_worse_or_equal;
          Alcotest.test_case "skew disabled" `Quick test_skew_disabled;
          Alcotest.test_case "metrics-before = previous metrics-after (bits)"
            `Quick test_metrics_before_is_previous_after;
          Alcotest.test_case "incomplete disabled" `Quick test_incomplete_disabled;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "second pass" `Quick test_flow_idempotent_second_pass_smaller;
        ] );
    ]
