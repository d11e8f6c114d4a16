(* Tests for Mbr_route: grid demand accumulation, overflow counting,
   star wirelength and the design-level estimate. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Grid = Mbr_route.Grid
module Estimator = Mbr_route.Estimator
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Reference = Qor_reference

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf = Alcotest.(check (float 1e-9))

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0

let grid ?(cap = 2.0) () = Grid.create ~core ~gcell:10.0 ~cap_h:cap ~cap_v:cap

let test_grid_dims () =
  let g = grid () in
  checki "nx" 10 (Grid.nx g);
  checki "ny" 10 (Grid.ny g)

let test_tile_of () =
  let g = grid () in
  check "origin tile" true (Grid.tile_of g (Point.make 0.0 0.0) = (0, 0));
  check "mid tile" true (Grid.tile_of g (Point.make 55.0 25.0) = (5, 2));
  check "clamped" true (Grid.tile_of g (Point.make 1000.0 (-4.0)) = (9, 0))

let test_h_segment_demand () =
  let g = grid () in
  (* segment spanning tiles 1..4 in x crosses 3 edges *)
  Grid.add_h_segment g ~y:5.0 ~x0:15.0 ~x1:45.0 ~demand:1.0;
  checkf "demand" 3.0 (Grid.total_demand g)

let test_v_segment_demand () =
  let g = grid () in
  Grid.add_v_segment g ~x:5.0 ~y0:15.0 ~y1:45.0 ~demand:2.0;
  checkf "demand" 6.0 (Grid.total_demand g)

let test_route_l_symmetric () =
  let g = grid () in
  (* L route across 2 tiles in x and 1 in y: both bends add up to the
     full demand on 3 tile-boundary crossings *)
  Grid.route_l g (Point.make 5.0 5.0) (Point.make 25.0 15.0) ~demand:1.0;
  checkf "total crossings" 3.0 (Grid.total_demand g)

let test_route_l_same_tile () =
  let g = grid () in
  Grid.route_l g (Point.make 2.0 2.0) (Point.make 8.0 8.0) ~demand:1.0;
  checkf "no crossings" 0.0 (Grid.total_demand g)

let test_overflow_counting () =
  let g = grid ~cap:2.0 () in
  checki "no overflow initially" 0 (Grid.overflow_edges g);
  (* push 3 units across one edge: over the 2.0 cap *)
  for _ = 1 to 3 do
    Grid.add_h_segment g ~y:5.0 ~x0:5.0 ~x1:15.0 ~demand:1.0
  done;
  checki "one overflow edge" 1 (Grid.overflow_edges g);
  checkf "max utilization" 1.5 (Grid.max_utilization g);
  Grid.reset g;
  checki "reset clears" 0 (Grid.overflow_edges g);
  checkf "reset demand" 0.0 (Grid.total_demand g)

(* ---- Estimator over a real placed design ---- *)

let lib = Presets.default ()

let dff1 = Library.find lib "DFF1_X1"

let attrs =
  Types.
    { lib_cell = dff1; fixed = false; size_only = false; scan = None; gate_enable = None }

let placed_pair () =
  (* two registers connected q1 -> d2, plus a clock net *)
  let d = Design.create ~name:"r" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let n = Design.add_net d "n" in
  let r1 =
    Design.add_register d "r1" attrs
      (Design.simple_conn ~d:[| None |] ~q:[| Some n |] ~clock:clk)
  in
  let r2 =
    Design.add_register d "r2" attrs
      (Design.simple_conn ~d:[| Some n |] ~q:[| None |] ~clock:clk)
  in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  Placement.set pl r1 (Point.make 10.0 12.0);
  Placement.set pl r2 (Point.make 40.0 12.0);
  (d, pl, n)

(* The one signal net's star wirelength (the clock net is excluded) and
   its HPWL. *)
let one_net pl n =
  let st = Estimator.create pl in
  let r = Estimator.update st in
  (r.Estimator.signal_wl, Estimator.hpwl st n)

let test_net_star_wl () =
  let _, pl, n = placed_pair () in
  let wl, hpwl = one_net pl n in
  (* two pins: star wl = manhattan distance between them *)
  check "positive" true (wl > 25.0 && wl < 35.0);
  checkf "hpwl matches for 2 pins" hpwl wl

let test_estimate_excludes_clock () =
  let _, pl, _ = placed_pair () in
  let r = Estimator.estimate pl in
  checki "one routed net (clock excluded)" 1 r.Estimator.n_routed_nets;
  check "wl positive" true (r.Estimator.signal_wl > 0.0);
  checki "no overflow for one net" 0 r.Estimator.overflow_edges

let test_estimate_empty_design () =
  let d = Design.create ~name:"empty" in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  let r = Estimator.estimate pl in
  checki "no nets" 0 r.Estimator.n_routed_nets;
  checkf "no wl" 0.0 r.Estimator.signal_wl

let test_unplaced_pins_skipped () =
  let d = Design.create ~name:"u" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let n = Design.add_net d "n" in
  let _r1 =
    Design.add_register d "r1" attrs
      (Design.simple_conn ~d:[| None |] ~q:[| Some n |] ~clock:clk)
  in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  (* nothing placed: nothing routed *)
  let r = Estimator.estimate pl in
  checki "nothing routed" 0 r.Estimator.n_routed_nets

let test_star_center_median () =
  (* three sinks in a line: star center is the median, wl = spread *)
  let d = Design.create ~name:"m" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let n = Design.add_net d "n" in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  let reg name x ~drives =
    let conn =
      if drives then Design.simple_conn ~d:[| None |] ~q:[| Some n |] ~clock:clk
      else Design.simple_conn ~d:[| Some n |] ~q:[| None |] ~clock:clk
    in
    let r = Design.add_register d name attrs conn in
    Placement.set pl r (Point.make x 12.0);
    r
  in
  let _ = reg "a" 0.0 ~drives:true in
  let _ = reg "b" 20.0 ~drives:false in
  let _ = reg "c" 50.0 ~drives:false in
  let wl, _ = one_net pl n in
  (* pins at x ~ 0/20/50 (pin offsets shift all equally): star from the
     median pin ~= 50 total in x *)
  check "around 50" true (wl > 45.0 && wl < 56.0)

(* ---- the single net sweep against the pre-change estimator ---- *)

(* One signal net over port pins at exact coordinates (a port is a
   zero-size cell, so its pin sits on its corner): the first point
   drives, the rest load. *)
let port_net pts =
  let d = Design.create ~name:"ports" in
  let n = Design.add_net d "n" in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  List.iteri
    (fun i (x, y) ->
      let dir = if i = 0 then Types.In_port else Types.Out_port in
      let c = Design.add_port d (Printf.sprintf "p%d" i) dir n in
      Placement.set pl c (Point.make x y))
    pts;
  (pl, n)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every field of the estimate, floats by their bits, equals the
   reference; so does the net's HPWL, returned with the estimate (the
   star wirelength is the estimate's: the design has one net). *)
let check_reference ?config pl n =
  let st = Estimator.create ?config pl in
  let r = Estimator.update st in
  let r0 = Reference.Route.estimate ?config pl in
  check "signal_wl bits" true
    (same_bits r.Estimator.signal_wl r0.Reference.Route.signal_wl);
  checki "overflow edges" r0.Reference.Route.overflow_edges r.Estimator.overflow_edges;
  check "max utilization bits" true
    (same_bits r.Estimator.max_utilization r0.Reference.Route.max_utilization);
  checki "routed nets" r0.Reference.Route.n_routed_nets r.Estimator.n_routed_nets;
  check "net hpwl bits" true
    (same_bits (Estimator.hpwl st n) (Reference.Route.net_hpwl pl n));
  check "star wl bits" true
    (same_bits r.Estimator.signal_wl (Reference.Route.net_star_wl pl n));
  (r, Estimator.hpwl st n)

(* Deterministic scatter, some points repeated. *)
let scatter ?(salt = 0) k =
  List.init k (fun i ->
      let h = ((i * 7919) + (salt * 104729) + 13) mod 1009 in
      (float_of_int (h mod 97) +. 0.25, float_of_int (h mod 89) +. 0.5))

let tight = { Estimator.gcell = 10.0; cap_h = 0.75; cap_v = 0.75 }

let test_even_pin_count () =
  (* 4 pins: the median is the mean of the middle two, x = (10+30)/2;
     the star length is the same anywhere between them, so only the
     grid sees where the centre lands *)
  let pl, n = port_net [ (0.0, 5.0); (10.0, 5.0); (30.0, 5.0); (70.0, 5.0) ] in
  let r, hpwl = check_reference pl n in
  checkf "star wl" (20.0 +. 10.0 +. 10.0 +. 50.0) r.Estimator.signal_wl;
  checkf "hpwl" 70.0 hpwl;
  (* many even-sized nets on a tight grid: an off-by-one centre tile
     changes which edges overflow *)
  for salt = 1 to 60 do
    List.iter
      (fun k ->
        let pl, n = port_net (scatter ~salt k) in
        ignore (check_reference ~config:tight pl n))
      [ 2; 4; 6; 8 ]
  done

let test_large_net () =
  (* above the insertion-sort cutoff: heapsort path, odd and even k *)
  List.iter
    (fun k ->
      let pl, n = port_net (scatter k) in
      let r, _ = check_reference pl n in
      checki "one routed net" 1 r.Estimator.n_routed_nets)
    [ 17; 40; 41; 600 ]

let test_pins_outside_core () =
  (* pins left of, below, right of and above the core: tiles clamp to
     the border, the wirelength still counts the full distance *)
  let pl, n =
    port_net [ (-25.0, 50.0); (150.0, 50.0); (50.0, -5.0); (50.0, 180.0); (3.0, 3.0) ]
  in
  let r, hpwl =
    check_reference ~config:{ Estimator.gcell = 10.0; cap_h = 0.5; cap_v = 0.5 } pl n
  in
  check "overflow on clamped routes" true (r.Estimator.overflow_edges > 0);
  checkf "hpwl spans outside" (175.0 +. 185.0) hpwl

let test_coincident_pins () =
  let pl, n = port_net [ (42.0, 17.0); (42.0, 17.0); (42.0, 17.0) ] in
  let r, hpwl = check_reference pl n in
  checkf "no wire" 0.0 r.Estimator.signal_wl;
  checkf "no hpwl" 0.0 hpwl;
  checki "still routed" 1 r.Estimator.n_routed_nets;
  let pl, n = port_net [ (5.0, 5.0); (5.0, 5.0); (65.0, 45.0); (65.0, 45.0) ] in
  ignore (check_reference pl n)

(* ---- the carried state ---- *)

(* A state carried through edits equals a fresh estimate after each (on
   the tight grid, where demand overflows): every result field, floats
   by their bits, the grid's total demand and the nets' HPWL. *)
let check_state what st pl nets =
  let r = Estimator.update st in
  let fresh = Estimator.create ~config:tight pl in
  let r1 = Estimator.update fresh in
  check (what ^ ": signal_wl bits") true
    (same_bits r.Estimator.signal_wl r1.Estimator.signal_wl);
  checki (what ^ ": overflow edges") r1.Estimator.overflow_edges r.Estimator.overflow_edges;
  check (what ^ ": max utilization bits") true
    (same_bits r.Estimator.max_utilization r1.Estimator.max_utilization);
  checki (what ^ ": routed nets") r1.Estimator.n_routed_nets r.Estimator.n_routed_nets;
  check (what ^ ": total demand bits") true
    (same_bits (Estimator.total_demand st) (Estimator.total_demand fresh));
  List.iter
    (fun n ->
      check (what ^ ": hpwl bits") true
        (same_bits (Estimator.hpwl st n) (Estimator.hpwl fresh n)))
    nets;
  r

(* Two nets of ports grow one pin at a time, in turn, on a tight grid:
   each growth moves a net to a fresh pool slot, so the pools fill and
   are compacted (the first state's pools hold only the two starting
   pins, later ones 1,024 slots or twice the live count); then pins
   leave until one net drops below two placed pins, and it regrows. *)
let test_state_through_growth () =
  let pl, n = port_net [ (5.0, 5.0); (60.0, 40.0) ] in
  let d = Placement.design pl in
  let m = Design.add_net d "m" in
  let st = Estimator.create ~config:tight pl in
  ignore (check_state "start" st pl [ n; m ]);
  let port net k (x, y) =
    let c = Design.add_port d (Printf.sprintf "q%d" k) Types.Out_port net in
    Placement.set pl c (Point.make x y);
    c
  in
  let ports =
    List.mapi
      (fun k xy ->
        let c = port (if k mod 2 = 0 then n else m) k xy in
        let r = check_state (Printf.sprintf "grow %d" k) st pl [ n; m ] in
        checki "one net swept per growth" 1 r.Estimator.nets_swept;
        c)
      (scatter ~salt:3 90)
  in
  List.iteri
    (fun k c ->
      if k mod 3 = 0 then begin
        Placement.remove pl c;
        ignore (check_state (Printf.sprintf "unplace %d" k) st pl [ n; m ])
      end)
    ports;
  (* [m] holds only ports; take its pins off until fewer than two stay *)
  List.iter
    (fun pid -> Design.disconnect d pid)
    (List.filteri (fun i _ -> i > 0) (Design.net d m).Types.n_pins);
  let r = check_state "m below two pins" st pl [ n; m ] in
  checki "only n routes" 1 r.Estimator.n_routed_nets;
  List.iteri
    (fun k c -> if k mod 3 = 0 then Placement.set pl c (Point.make 50.0 (float_of_int k)))
    ports;
  ignore (check_state "regrow" st pl [ n; m ])

let () =
  Alcotest.run "mbr_route"
    [
      ( "grid",
        [
          Alcotest.test_case "dims" `Quick test_grid_dims;
          Alcotest.test_case "tile_of" `Quick test_tile_of;
          Alcotest.test_case "h segment" `Quick test_h_segment_demand;
          Alcotest.test_case "v segment" `Quick test_v_segment_demand;
          Alcotest.test_case "L route" `Quick test_route_l_symmetric;
          Alcotest.test_case "same tile" `Quick test_route_l_same_tile;
          Alcotest.test_case "overflow" `Quick test_overflow_counting;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "star wl" `Quick test_net_star_wl;
          Alcotest.test_case "clock excluded" `Quick test_estimate_excludes_clock;
          Alcotest.test_case "empty design" `Quick test_estimate_empty_design;
          Alcotest.test_case "unplaced skipped" `Quick test_unplaced_pins_skipped;
          Alcotest.test_case "median star center" `Quick test_star_center_median;
        ] );
      ( "reference",
        [
          Alcotest.test_case "even pin count" `Quick test_even_pin_count;
          Alcotest.test_case "large net (heapsort)" `Quick test_large_net;
          Alcotest.test_case "pins outside the core" `Quick test_pins_outside_core;
          Alcotest.test_case "coincident pins" `Quick test_coincident_pins;
          Alcotest.test_case "carried state through growth" `Quick
            test_state_through_growth;
        ] );
    ]
