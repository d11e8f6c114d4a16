(* Tests for Mbr_sta: hand-computed arrivals/slacks on a small pipeline
   (cells co-located so wire terms vanish), endpoint bookkeeping, cycle
   detection, skew semantics, and the useful-skew optimizer. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Corner = Mbr_sta.Corner
module Skew = Mbr_sta.Skew

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf = Alcotest.(check (float 1e-6))

let lib = Presets.default ()

let dff1 = Library.find lib "DFF1_X1"

let attrs =
  Types.
    { lib_cell = dff1; fixed = false; size_only = false; scan = None; gate_enable = None }

let gate =
  Types.
    {
      gate = "BUF";
      n_inputs = 1;
      drive_res = 2.0;
      intrinsic = 20.0;
      input_cap = 0.5;
      area = 1.0;
      g_width = 1.0;
      g_height = 1.2;
    }

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:60.0 ~hy:60.0

let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2

let cfg = { Engine.default_config with Engine.clock_period = 300.0 }

(* in --g1--> r1.D ; r1.Q --g2--> r2.D ; r2.Q -> out. All co-located. *)
let pipeline () =
  let d = Design.create ~name:"pipe" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let _ = Design.add_clock_root d "uclk" clk in
  let a = Design.add_net d "a" in
  let n1 = Design.add_net d "n1" in
  let q1 = Design.add_net d "q1" in
  let n2 = Design.add_net d "n2" in
  let q2 = Design.add_net d "q2" in
  let pa = Design.add_port d "a" Types.In_port a in
  let po = Design.add_port d "o" Types.Out_port q2 in
  let g1 = Design.add_comb d "g1" gate ~inputs:[ a ] ~output:n1 in
  let g2 = Design.add_comb d "g2" gate ~inputs:[ q1 ] ~output:n2 in
  let r1 =
    Design.add_register d "r1" attrs
      (Design.simple_conn ~d:[| Some n1 |] ~q:[| Some q1 |] ~clock:clk)
  in
  let r2 =
    Design.add_register d "r2" attrs
      (Design.simple_conn ~d:[| Some n2 |] ~q:[| Some q2 |] ~clock:clk)
  in
  let pl = Placement.create fp d in
  let at = Point.make 10.0 12.0 in
  List.iter (fun c -> Placement.set pl c at) [ pa; po; g1; g2; r1; r2 ];
  (match Design.find_cell d "uclk" with
  | Some id -> Placement.set pl id at
  | None -> ());
  (d, pl, r1, r2)

(* With zero wire length the only loads are pin caps; offsets within a
   cell still produce tiny wire terms, so compare with a loose eps. *)
let roughly msg expect actual = check msg true (Float.abs (expect -. actual) < 2.0)

let test_arrival_chain () =
  let d, pl, r1, _ = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  let d_pin =
    match Design.pin_of d r1 (Types.Pin_d 0) with Some p -> p | None -> assert false
  in
  (match Engine.arrival eng d_pin with
  | Some a ->
    (* input_delay + g1 (intrinsic + drive*data_cap) *)
    let expect = 40.0 +. 20.0 +. (2.0 *. dff1.Cell_lib.data_pin_cap) in
    roughly "arrival at r1.D" expect a
  | None -> Alcotest.fail "arrival expected")

let test_slack_value () =
  let d, pl, r1, _ = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  let d_pin =
    match Design.pin_of d r1 (Types.Pin_d 0) with Some p -> p | None -> assert false
  in
  (match (Engine.arrival eng d_pin, Engine.slack eng d_pin) with
  | Some a, Some s ->
    (* required = period - setup (zero skew) *)
    roughly "slack = period - setup - arrival" (300.0 -. dff1.Cell_lib.setup -. a) s
  | _, _ -> Alcotest.fail "timing expected")

let test_endpoints () =
  let _, pl, _, _ = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  (* endpoints: r1.D, r2.D, out port *)
  checki "three endpoints" 3 (Engine.n_endpoints eng);
  checki "none failing at 300ps" 0 (Engine.failing_endpoints eng);
  checkf "tns zero" 0.0 (Engine.tns eng);
  check "wns positive" true (Engine.wns eng > 0.0)

let test_failing_when_period_short () =
  let _, pl, _, _ = pipeline () in
  let tight = { cfg with Engine.clock_period = 50.0 } in
  let eng = Engine.build ~config:tight pl in
  check "failing endpoints" true (Engine.failing_endpoints eng > 0);
  check "tns negative" true (Engine.tns eng < 0.0);
  check "wns = min slack" true (Engine.wns eng <= Engine.tns eng /. 3.0 +. 1e-9 || Engine.wns eng < 0.0)

let test_skew_shifts_required () =
  let d, pl, r1, _ = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  let d_pin =
    match Design.pin_of d r1 (Types.Pin_d 0) with Some p -> p | None -> assert false
  in
  let s0 = match Engine.slack eng d_pin with Some s -> s | None -> assert false in
  Engine.set_skew eng r1 25.0;
  Engine.analyze eng;
  let s1 = match Engine.slack eng d_pin with Some s -> s | None -> assert false in
  checkf "late clock adds D slack" 25.0 (s1 -. s0)

let test_skew_propagates_to_downstream () =
  let d, pl, r1, r2 = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  let d2 =
    match Design.pin_of d r2 (Types.Pin_d 0) with Some p -> p | None -> assert false
  in
  let s0 = match Engine.slack eng d2 with Some s -> s | None -> assert false in
  (* launching r1 later steals slack from the r1 -> r2 path *)
  Engine.set_skew eng r1 25.0;
  Engine.analyze eng;
  let s1 = match Engine.slack eng d2 with Some s -> s | None -> assert false in
  checkf "downstream loses the same amount" (-25.0) (s1 -. s0)

let test_reg_slacks () =
  let _, pl, r1, r2 = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  check "r1 d slack finite" true (Float.is_finite (Engine.reg_d_slack eng r1));
  check "r1 q slack finite" true (Float.is_finite (Engine.reg_q_slack eng r1));
  (* r2.Q drives only the out port; still a real endpoint *)
  check "r2 q slack finite" true (Float.is_finite (Engine.reg_q_slack eng r2))

let test_output_load () =
  let d, pl, r1, _ = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  let q_pin =
    match Design.pin_of d r1 (Types.Pin_q 0) with Some p -> p | None -> assert false
  in
  (* r1.Q drives g2's input: load >= g2 input cap *)
  check "load >= sink cap" true (Engine.output_load eng q_pin >= gate.Types.input_cap)

let test_cycle_detection () =
  let d = Design.create ~name:"cyc" in
  let n1 = Design.add_net d "n1" in
  let n2 = Design.add_net d "n2" in
  let _ = Design.add_comb d "g1" gate ~inputs:[ n2 ] ~output:n1 in
  let _ = Design.add_comb d "g2" gate ~inputs:[ n1 ] ~output:n2 in
  let pl = Placement.create fp d in
  let witness =
    try
      ignore (Engine.build ~config:cfg pl);
      Alcotest.fail "combinational cycle not detected"
    with Engine.Combinational_cycle pins -> pins
  in
  (* the witness is a closed pin path: at least a 2-pin loop plus the
     repeated entry pin, every hop an actual pin of the looped gates *)
  check "witness closed" true
    (match (witness, List.rev witness) with
    | first :: _ :: _, last :: _ -> first = last
    | _ -> false);
  checki "witness length" 5 (List.length witness);
  let g1 = match Design.find_cell d "g1" with Some c -> c | None -> assert false in
  let g2 = match Design.find_cell d "g2" with Some c -> c | None -> assert false in
  let loop_pins = Design.pins_of d g1 @ Design.pins_of d g2 in
  check "witness pins belong to the loop" true
    (List.for_all (fun pid -> List.mem pid loop_pins) witness);
  (* the human-readable rendering names the looped cells and pin kinds *)
  let s = Engine.cycle_to_string d witness in
  let contains affix =
    let n = String.length affix and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
    at 0
  in
  check "format mentions g1" true (contains "g1/");
  check "format mentions g2" true (contains "g2/");
  check "format draws arrows" true (contains " -> ")

let test_wire_delay_increases_with_distance () =
  let d, pl, _r1, r2 = pipeline () in
  ignore d;
  let eng = Engine.build ~config:cfg pl in
  let s_close = Engine.reg_d_slack eng r2 in
  (* move r2 far away: the r1 -> g2 -> r2 wires lengthen *)
  Placement.set pl r2 (Point.make 55.0 55.0);
  Engine.analyze eng;
  let s_far = Engine.reg_d_slack eng r2 in
  check "distance hurts slack" true (s_far < s_close)

let test_skew_optimizer_improves_tns () =
  let _, pl, _, _ = pipeline () in
  (* period short enough that the input stage fails but the r1->r2
     stage has margin: skewing r1 later fixes the input stage *)
  let tight = { cfg with Engine.clock_period = 95.0 } in
  let eng = Engine.build ~config:tight pl in
  let report = Skew.optimize eng in
  check "tns not worse" true (report.Skew.tns_after >= report.Skew.tns_before -. 1e-9);
  check "skew bounded" true (report.Skew.max_abs_skew <= Skew.default_config.Skew.bound +. 1e-9)

let test_update_skews_matches_full_analysis () =
  (* incremental patching after skew changes must reproduce the full
     analysis bit-for-bit, on a real generated design *)
  let module G = Mbr_designgen.Generate in
  let module P = Mbr_designgen.Profile in
  let g = G.generate (P.tiny ~seed:909) in
  let eng_inc = Engine.build ~config:g.G.sta_config g.G.placement in
  let eng_full = Engine.build ~config:g.G.sta_config g.G.placement in
  let regs = Design.registers g.G.design in
  let rng = Mbr_util.Rng.create 17 in
  for _round = 1 to 5 do
    (* random subset of registers gets random skews *)
    let moves =
      List.filter_map
        (fun r ->
          if Mbr_util.Rng.chance rng 0.2 then
            Some (r, Mbr_util.Rng.float_in rng (-80.0) 80.0)
          else None)
        regs
    in
    Engine.update_skews eng_inc moves;
    List.iter (fun (r, s) -> Engine.set_skew eng_full r s) moves;
    Engine.analyze eng_full;
    let same_bits what a b =
      Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)
    in
    same_bits "wns bits equal" (Engine.wns eng_full) (Engine.wns eng_inc);
    same_bits "tns bits equal" (Engine.tns eng_full) (Engine.tns eng_inc);
    checki "failing equal" (Engine.failing_endpoints eng_full)
      (Engine.failing_endpoints eng_inc);
    (* every register's D/Q slacks *)
    List.iter
      (fun r ->
        same_bits "d slack bits equal" (Engine.reg_d_slack eng_full r)
          (Engine.reg_d_slack eng_inc r);
        same_bits "q slack bits equal" (Engine.reg_q_slack eng_full r)
          (Engine.reg_q_slack eng_inc r))
      regs
  done

(* An analysis never reads connectivity the graph has not absorbed:
   [analyze] first takes in pending netlist edits, so removing a
   register and then asking for timing gives what a fresh engine
   gives, bit for bit, instead of walking the dead register's
   endpoint. *)
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check_same_timing eng fresh dsg =
  let bits = Option.map Int64.bits_of_float in
  let differ = ref [] in
  for pid = Design.n_pins dsg - 1 downto 0 do
    if
      bits (Engine.arrival eng pid) <> bits (Engine.arrival fresh pid)
      || bits (Engine.required eng pid) <> bits (Engine.required fresh pid)
    then differ := pid :: !differ
  done;
  Alcotest.(check (list int)) "pins timed unlike a fresh build" [] !differ;
  Alcotest.(check int64) "tns bits" (Int64.bits_of_float (Engine.tns fresh))
    (Int64.bits_of_float (Engine.tns eng));
  checki "endpoints" (Engine.n_endpoints fresh) (Engine.n_endpoints eng)

let test_analyze_absorbs_edits () =
  let g = G.generate (P.tiny ~seed:4) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let removed = List.hd (Design.registers g.G.design) in
  Design.remove_cell g.G.design removed;
  Placement.remove g.G.placement removed;
  Engine.analyze eng;
  let fresh = Engine.build ~config:g.G.sta_config g.G.placement in
  check_same_timing eng fresh g.G.design


(* [build] returns an analyzed engine: its one plan is built, and a
   second analysis moves no pin's timing and no TNS bit. *)
let test_build_analyzes () =
  let g = G.generate (P.tiny ~seed:4) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  checki "plan built by build" 1 (Engine.plan_builds eng);
  let bits = Option.map Int64.bits_of_float in
  let timing () =
    ( List.init (Design.n_pins g.G.design) (fun pid ->
          (bits (Engine.arrival eng pid), bits (Engine.required eng pid))),
      Int64.bits_of_float (Engine.tns eng) )
  in
  let first = timing () in
  Engine.analyze eng;
  check "second analysis moves nothing" true (timing () = first);
  checki "one plan per analysis" 2 (Engine.plan_builds eng)

(* [set_corners] re-analyzes before it returns: the new set's corner
   slacks equal a fresh build's, with no query in between. *)
let test_set_corners_analyzes () =
  let g = G.generate (P.tiny ~seed:4) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let corners = [| Corner.typical; Corner.slow; Corner.fast |] in
  Engine.set_corners eng corners;
  checki "plan built by set_corners" 2 (Engine.plan_builds eng);
  let fresh = Engine.build ~config:g.G.sta_config ~corners g.G.placement in
  let bits = Option.map Int64.bits_of_float in
  for pid = 0 to Design.n_pins g.G.design - 1 do
    for k = 0 to Array.length corners - 1 do
      if bits (Engine.corner_slack eng k pid) <> bits (Engine.corner_slack fresh k pid)
      then Alcotest.failf "corner %d slack of pin %d differs from a fresh build" k pid
    done
  done

(* A rebuild that meets a cycle leaves the engine unanalyzed: every
   later refresh, skew update and query retries the rebuild and raises
   again, never reading planes sized for the unfinished graph. *)
let test_cycle_after_build () =
  let d = Design.create ~name:"loop" in
  let a = Design.add_net d "a" in
  let n1 = Design.add_net d "n1" in
  let n2 = Design.add_net d "n2" in
  let _ = Design.add_port d "a" Types.In_port a in
  let g1 = Design.add_comb d "g1" gate ~inputs:[ a ] ~output:n1 in
  let _ = Design.add_comb d "g2" gate ~inputs:[ n1 ] ~output:n2 in
  let eng = Engine.build ~config:cfg (Placement.create fp d) in
  (* g1 now reads g2's output: g1 -> g2 -> g1 *)
  Design.connect d (Option.get (Design.pin_of d g1 (Types.Pin_in 0))) n2;
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s read the graph instead of raising" what
    | exception Engine.Combinational_cycle _ -> ()
  in
  raises "refresh" (fun () -> Engine.refresh eng);
  raises "second refresh" (fun () -> Engine.refresh eng);
  raises "update_skews" (fun () -> Engine.update_skews eng []);
  raises "wns" (fun () -> ignore (Engine.wns eng))

let test_skew_optimizer_no_op_when_clean () =
  let _, pl, _, _ = pipeline () in
  let eng = Engine.build ~config:cfg pl in
  let report = Skew.optimize eng in
  checkf "tns stays zero" 0.0 report.Skew.tns_after;
  checkf "no skew introduced" 0.0 report.Skew.max_abs_skew

let () =
  Alcotest.run "mbr_sta"
    [
      ( "engine",
        [
          Alcotest.test_case "arrival chain" `Quick test_arrival_chain;
          Alcotest.test_case "slack value" `Quick test_slack_value;
          Alcotest.test_case "endpoints" `Quick test_endpoints;
          Alcotest.test_case "failing endpoints" `Quick test_failing_when_period_short;
          Alcotest.test_case "reg slacks" `Quick test_reg_slacks;
          Alcotest.test_case "output load" `Quick test_output_load;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "wire delay grows" `Quick test_wire_delay_increases_with_distance;
          Alcotest.test_case "analyze absorbs netlist edits" `Quick
            test_analyze_absorbs_edits;
          Alcotest.test_case "build returns analyzed" `Quick test_build_analyzes;
          Alcotest.test_case "set_corners re-analyzes" `Quick
            test_set_corners_analyzes;
          Alcotest.test_case "cycle after build keeps raising" `Quick
            test_cycle_after_build;
        ] );
      ( "skew",
        [
          Alcotest.test_case "skew shifts required" `Quick test_skew_shifts_required;
          Alcotest.test_case "skew hits downstream" `Quick test_skew_propagates_to_downstream;
          Alcotest.test_case "optimizer improves tns" `Quick test_skew_optimizer_improves_tns;
          Alcotest.test_case "incremental = full analysis" `Quick
            test_update_skews_matches_full_analysis;
          Alcotest.test_case "optimizer no-op when clean" `Quick
            test_skew_optimizer_no_op_when_clean;
        ] );
    ]
