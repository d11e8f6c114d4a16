(* Tests for Mbr_place: floorplan snapping, placement queries, the
   occupancy structure and both legalization paths. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Legalizer = Mbr_place.Legalizer
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf = Alcotest.(check (float 1e-9))

let lib = Presets.default ()

let dff1 = Library.find lib "DFF1_X1"

let dff8 = Library.find lib "DFF8_X1"

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:24.0 ~hy:24.0

let fp () = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2

let attrs cell =
  Types.{ lib_cell = cell; fixed = false; size_only = false; scan = None; gate_enable = None }

let design_with_regs n cell =
  let d = Design.create ~name:"t" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let regs =
    List.init n (fun i ->
        let bits = cell.Cell_lib.bits in
        Design.add_register d
          (Printf.sprintf "r%d" i)
          (attrs cell)
          (Design.simple_conn ~d:(Array.make bits None) ~q:(Array.make bits None)
             ~clock:clk))
  in
  (d, regs)

(* ---- Floorplan ---- *)

let test_fp_rows () =
  let f = fp () in
  checki "rows" 20 (Floorplan.n_rows f);
  checkf "row 0" 0.0 (Floorplan.row_y f 0);
  checkf "row 3" 3.6 (Floorplan.row_y f 3);
  checki "row_of_y mid" 2 (Floorplan.row_of_y f 2.5);
  checki "row_of_y clamped high" 19 (Floorplan.row_of_y f 99.0);
  checki "row_of_y clamped low" 0 (Floorplan.row_of_y f (-5.0))

let test_fp_snap () =
  let f = fp () in
  checkf "snap x" 1.2 (Floorplan.snap_x f 1.23);
  let p = Floorplan.snap f (Point.make 5.31 4.9) in
  checkf "snapped x" 5.4 p.Point.x;
  checkf "snapped y" 4.8 p.Point.y

let test_fp_invalid () =
  Alcotest.check_raises "bad pitch" (Invalid_argument "Floorplan.make: non-positive pitch")
    (fun () -> ignore (Floorplan.make ~core ~row_height:0.0 ~site_width:0.2))

let test_fp_clamp () =
  let f = fp () in
  let p = Floorplan.clamp_ll f ~w:2.0 ~h:1.2 (Point.make 23.5 30.0) in
  checkf "x clamped" 22.0 p.Point.x;
  checkf "y clamped" 22.8 p.Point.y

(* ---- Placement ---- *)

let test_placement_basics () =
  let d, regs = design_with_regs 2 dff1 in
  let pl = Placement.create (fp ()) d in
  (match regs with
  | [ a; b ] ->
    Placement.set pl a (Point.make 1.0 1.2);
    check "a placed" true (Placement.is_placed pl a);
    check "b unplaced" false (Placement.is_placed pl b);
    let f = Placement.footprint pl a in
    checkf "fp lx" 1.0 f.Rect.lx;
    checkf "fp width" dff1.Cell_lib.width (Rect.width f);
    checki "one placed register" 1 (List.length (Placement.placed_registers pl));
    Placement.remove pl a;
    check "removed" false (Placement.is_placed pl a)
  | _ -> Alcotest.fail "two regs")

let test_placement_pin_location () =
  let d, regs = design_with_regs 1 dff8 in
  let pl = Placement.create (fp ()) d in
  (match regs with
  | [ r ] ->
    Placement.set pl r (Point.make 2.0 3.6);
    (match Design.pin_of d r (Types.Pin_d 0) with
    | Some pid ->
      let loc = Placement.pin_location pl pid in
      let off = Cell_lib.d_pin_offset dff8 0 in
      checkf "pin x = corner + offset" (2.0 +. off.Point.x) loc.Point.x;
      checkf "pin y" (3.6 +. off.Point.y) loc.Point.y
    | None -> Alcotest.fail "d pin")
  | _ -> Alcotest.fail "one reg")

let test_overlapping_registers () =
  let d, regs = design_with_regs 3 dff1 in
  let pl = Placement.create (fp ()) d in
  (match regs with
  | [ a; b; c ] ->
    Placement.set pl a (Point.make 1.0 1.2);
    Placement.set pl b (Point.make 1.2 1.2) (* overlaps a *);
    Placement.set pl c (Point.make 10.0 1.2);
    checki "one overlap pair" 1 (List.length (Placement.overlapping_registers pl));
    (* touching cells do not overlap *)
    Placement.set pl b (Point.make (1.0 +. dff1.Cell_lib.width) 1.2);
    checki "no overlap when abutted" 0 (List.length (Placement.overlapping_registers pl))
  | _ -> Alcotest.fail "three regs")

let test_utilization () =
  let d, regs = design_with_regs 1 dff1 in
  let pl = Placement.create (fp ()) d in
  (match regs with
  | [ r ] ->
    Placement.set pl r (Point.make 0.0 0.0);
    checkf "util" (dff1.Cell_lib.area /. Rect.area core) (Placement.utilization pl)
  | _ -> Alcotest.fail "one reg")

(* ---- Net stamps ---- *)

(* r0 drives [a]; r1 loads [a] and drives [b]; r2 loads [b] and leaves
   its Q pin free; [c] starts empty. All three share the clock net. *)
let stamp_design () =
  let d = Design.create ~name:"stamps" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let a = Design.add_net d "a" and b = Design.add_net d "b" in
  let c = Design.add_net d "c" in
  let reg name ~dn ~qn =
    Design.add_register d name (attrs dff1)
      (Design.simple_conn ~d:[| dn |] ~q:[| qn |] ~clock:clk)
  in
  let r0 = reg "r0" ~dn:None ~qn:(Some a) in
  let r1 = reg "r1" ~dn:(Some a) ~qn:(Some b) in
  let r2 = reg "r2" ~dn:(Some b) ~qn:None in
  let pl = Placement.create (fp ()) d in
  List.iteri
    (fun i r -> Placement.set pl r (Point.make (2.0 *. float_of_int i) 1.2))
    [ r0; r1; r2 ];
  (d, pl, (clk, a, b, c), (r0, r1, r2))

let stamps pl d = Array.init (Design.n_nets d) (Placement.net_stamp pl)

(* Apply [edit] with every net's cache filled and tell which nets'
   stamps moved, after checking that they are exactly the nets whose
   cached points were dropped (a kept cache entry is the same list). *)
let moved_by pl d edit =
  let pts = Array.init (Design.n_nets d) (Placement.net_pin_points pl) in
  let before = stamps pl d in
  edit ();
  let after = stamps pl d in
  List.filter
    (fun nid ->
      let moved = after.(nid) <> before.(nid) in
      (match pts.(nid) with
      | [] -> ()
      | old ->
        check
          (Printf.sprintf "net %d: stamp moved iff its points were dropped" nid)
          moved
          (Placement.net_pin_points pl nid != old));
      check (Printf.sprintf "net %d: stamps only grow" nid) true
        (after.(nid) >= before.(nid));
      moved)
    (List.init (Design.n_nets d) Fun.id)

let sorted = List.sort compare

let test_stamps_follow_edits () =
  let d, pl, (clk, a, b, c), (r0, r1, r2) = stamp_design () in
  let ints = Alcotest.(check (list int)) in
  ints "move r1: its clock, D and Q nets" (sorted [ clk; a; b ])
    (moved_by pl d (fun () -> Placement.set pl r1 (Point.make 9.0 3.6)));
  ints "unplace r0" (sorted [ clk; a ])
    (moved_by pl d (fun () -> Placement.remove pl r0));
  ints "unplacing an unplaced cell moves nothing" []
    (moved_by pl d (fun () -> Placement.remove pl r0));
  let q2 = Option.get (Design.pin_of d r2 (Types.Pin_q 0)) in
  ints "connect a free pin" [ c ]
    (moved_by pl d (fun () -> Design.connect d q2 c));
  ints "reconnect: the old net and the new" (sorted [ b; c ])
    (moved_by pl d (fun () -> Design.connect d q2 b));
  ints "connect to its own net moves nothing" []
    (moved_by pl d (fun () -> Design.connect d q2 b));
  ints "disconnect" [ b ] (moved_by pl d (fun () -> Design.disconnect d q2));
  let dff1_x2 = Library.find lib "DFF1_X2" in
  ints "retype r2: every net on its pins" (sorted [ clk; b ])
    (moved_by pl d (fun () -> Design.retype_register d r2 dff1_x2));
  ints "remove r1: the nets it leaves" (sorted [ clk; a; b ])
    (moved_by pl d (fun () -> Design.remove_cell d r1))

let test_stamps_new_net () =
  let d, pl, _, (r0, _, _) = stamp_design () in
  let n = Design.add_net d "late" in
  checki "a net the placement never saw reads 0" 0 (Placement.net_stamp pl n);
  check "0 differs from a consumer's never-swept -1" true
    (Placement.net_stamp pl n <> -1);
  (* far beyond the initial stamp array: read, then grow on a bump *)
  let last = ref n in
  for i = 1 to 600 do
    last := Design.add_net d (Printf.sprintf "n%d" i)
  done;
  checki "read past the array" 0 (Placement.net_stamp pl !last);
  let d0 = Option.get (Design.pin_of d r0 (Types.Pin_d 0)) in
  Design.connect d d0 !last;
  checki "its first change moves it" 1 (Placement.net_stamp pl !last)

let test_stamps_copy () =
  let _, pl, (clk, a, _, _), (r0, _, _) = stamp_design () in
  let cp = Placement.copy pl in
  let s = Placement.net_stamp pl a and c0 = Placement.net_stamp cp clk in
  Placement.set cp r0 (Point.make 5.0 6.0);
  checki "a move on the copy leaves the original" s (Placement.net_stamp pl a);
  check "and moves the copy" true (Placement.net_stamp cp clk > c0);
  let s' = Placement.net_stamp cp a in
  Placement.set pl r0 (Point.make 7.0 6.0);
  checki "a move on the original leaves the copy" s' (Placement.net_stamp cp a)

(* ---- Occupancy ---- *)

let test_occupancy_fits () =
  let d, regs = design_with_regs 1 dff1 in
  let pl = Placement.create (fp ()) d in
  (match regs with
  | [ r ] ->
    Placement.set pl r (Point.make 5.0 1.2);
    let occ = Legalizer.Occupancy.of_placement pl in
    let here = Placement.footprint pl r in
    check "occupied" false (Legalizer.Occupancy.fits occ here);
    check "free elsewhere" true
      (Legalizer.Occupancy.fits occ (Rect.translate here (Point.make 5.0 0.0)));
    check "outside core" false
      (Legalizer.Occupancy.fits occ
         (Rect.make ~lx:(-1.0) ~ly:0.0 ~hx:0.5 ~hy:1.2))
  | _ -> Alcotest.fail "one reg")

let test_occupancy_add_remove () =
  let d, _ = design_with_regs 0 dff1 in
  let pl = Placement.create (fp ()) d in
  let occ = Legalizer.Occupancy.of_placement pl in
  let r = Rect.make ~lx:2.0 ~ly:2.4 ~hx:4.0 ~hy:3.6 in
  check "initially free" true (Legalizer.Occupancy.fits occ r);
  Legalizer.Occupancy.add occ r;
  check "occupied" false (Legalizer.Occupancy.fits occ r);
  Legalizer.Occupancy.remove occ r;
  check "free again" true (Legalizer.Occupancy.fits occ r)

let test_occupancy_find_nearest_exact () =
  let d, _ = design_with_regs 0 dff1 in
  let pl = Placement.create (fp ()) d in
  let occ = Legalizer.Occupancy.of_placement pl in
  let desired = Point.make 5.0 6.0 in
  (match Legalizer.Occupancy.find_nearest occ ~w:2.0 desired with
  | Some p ->
    checkf "x kept" 5.0 p.Point.x;
    checkf "y snapped to row" 6.0 p.Point.y
  | None -> Alcotest.fail "empty core must fit")

let test_occupancy_find_nearest_avoids () =
  let d, _ = design_with_regs 0 dff1 in
  let pl = Placement.create (fp ()) d in
  let occ = Legalizer.Occupancy.of_placement pl in
  (* block the desired row segment *)
  Legalizer.Occupancy.add occ (Rect.make ~lx:4.0 ~ly:6.0 ~hx:8.0 ~hy:7.2);
  (match Legalizer.Occupancy.find_nearest occ ~w:2.0 (Point.make 5.0 6.0) with
  | Some p ->
    let placed = Rect.make ~lx:p.Point.x ~ly:p.Point.y ~hx:(p.Point.x +. 2.0) ~hy:(p.Point.y +. 1.2) in
    check "legal spot" true (Legalizer.Occupancy.fits occ placed);
    check "moved" true (Point.manhattan p (Point.make 5.0 6.0) > 0.1)
  | None -> Alcotest.fail "room exists")

let test_occupancy_region_constraint () =
  let d, _ = design_with_regs 0 dff1 in
  let pl = Placement.create (fp ()) d in
  let occ = Legalizer.Occupancy.of_placement pl in
  let region = Rect.make ~lx:10.0 ~ly:12.0 ~hx:16.0 ~hy:16.8 in
  (match Legalizer.Occupancy.find_nearest occ ~region ~w:2.0 (Point.make 0.0 0.0) with
  | Some p ->
    check "inside region" true
      (Rect.contains_rect region
         (Rect.make ~lx:p.Point.x ~ly:p.Point.y ~hx:(p.Point.x +. 2.0)
            ~hy:(p.Point.y +. 1.2)))
  | None -> Alcotest.fail "region has room");
  (* region too small for the width *)
  let tiny = Rect.make ~lx:10.0 ~ly:12.0 ~hx:11.0 ~hy:13.2 in
  check "no fit in tiny region" true
    (Legalizer.Occupancy.find_nearest occ ~region:tiny ~w:2.0 (Point.make 0.0 0.0) = None)

let test_occupancy_full_row_skips () =
  let d, _ = design_with_regs 0 dff1 in
  let pl = Placement.create (fp ()) d in
  let occ = Legalizer.Occupancy.of_placement pl in
  (* fill row 5 completely *)
  Legalizer.Occupancy.add occ (Rect.make ~lx:0.0 ~ly:6.0 ~hx:24.0 ~hy:7.2);
  (match Legalizer.Occupancy.find_nearest occ ~w:3.0 (Point.make 12.0 6.0) with
  | Some p -> check "adjacent row" true (Float.abs (p.Point.y -. 6.0) >= 1.2 -. 1e-9)
  | None -> Alcotest.fail "other rows free")

(* ---- occupancy property: fits/add/remove vs a naive rectangle-list
   oracle ---- *)

let occupancy_matches_oracle =
  QCheck.Test.make ~name:"occupancy fits = naive overlap oracle" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let d, _ = design_with_regs 0 dff1 in
      let pl = Placement.create (fp ()) d in
      let occ = Legalizer.Occupancy.of_placement pl in
      let oracle = ref [] in
      let random_rect () =
        (* row-aligned, site-ish rectangles inside the 24x24 core *)
        let w = 0.5 +. Rng.float rng 4.0 in
        let row = Rng.int rng 18 in
        let x = Rng.float rng (24.0 -. w) in
        let y = 1.2 *. float_of_int row in
        Rect.make ~lx:x ~ly:y ~hx:(x +. w) ~hy:(y +. 1.2)
      in
      let ok = ref true in
      for _ = 1 to 30 do
        let r = random_rect () in
        let oracle_fits =
          List.for_all (fun o -> not (Rect.overlaps_strictly o r)) !oracle
        in
        if Legalizer.Occupancy.fits occ r <> oracle_fits then ok := false;
        (* mutate: add if free, occasionally remove a known rect *)
        if oracle_fits && Rng.bool rng then begin
          Legalizer.Occupancy.add occ r;
          oracle := r :: !oracle
        end
        else if !oracle <> [] && Rng.chance rng 0.3 then begin
          let victim = Rng.pick_list rng !oracle in
          Legalizer.Occupancy.remove occ victim;
          oracle := List.filter (fun o -> o <> victim) !oracle
        end
      done;
      !ok)

(* ---- find_nearest property: the gap-map walk vs the historical
   full-gap-scan reference, bit for bit ---- *)

(* Reference implementation: the pre-gap-map algorithm — per query,
   build every free gap in each candidate row from the sorted interval
   list and scan the (right-to-left) gap list keeping the first
   strictly better candidate. [Occupancy.find_nearest] must reproduce
   its answer exactly, including equal-cost tie-breaks. *)
let reference_find_nearest fp rows ?region ~w (desired : Point.t) =
  let nearest_x_in_row intervals ~w ~xmin ~xmax ~desired =
    if xmax -. xmin < w -. 1e-9 then None
    else begin
      let gaps = ref [] in
      let cursor = ref xmin in
      List.iter
        (fun (a, b) ->
          if a > !cursor then gaps := (!cursor, Float.min a xmax) :: !gaps;
          cursor := Float.max !cursor b)
        intervals;
      if !cursor < xmax then gaps := (!cursor, xmax) :: !gaps;
      let best = ref None in
      List.iter
        (fun (glo, ghi) ->
          if ghi -. glo >= w -. 1e-9 then begin
            let x = Float.max glo (Float.min (ghi -. w) desired) in
            let cost = Float.abs (x -. desired) in
            match !best with
            | Some (_, c) when c <= cost -> ()
            | Some _ | None -> best := Some (x, cost)
          end)
        !gaps;
      Option.map fst !best
    end
  in
  let core = fp.Floorplan.core in
  let h = fp.Floorplan.row_height in
  let xmin, xmax, ymin, ymax =
    match region with
    | Some r ->
      ( Float.max core.Rect.lx r.Rect.lx,
        Float.min (core.Rect.hx -. w) (r.Rect.hx -. w),
        Float.max core.Rect.ly r.Rect.ly,
        Float.min (core.Rect.hy -. h) (r.Rect.hy -. h) )
    | None -> (core.Rect.lx, core.Rect.hx -. w, core.Rect.ly, core.Rect.hy -. h)
  in
  if xmax < xmin -. 1e-9 || ymax < ymin -. 1e-9 then None
  else begin
    let n_rows = Floorplan.n_rows fp in
    let desired_row = Floorplan.row_of_y fp desired.Point.y in
    let best = ref None in
    let consider row =
      if row >= 0 && row < n_rows then begin
        let y = Floorplan.row_y fp row in
        if y >= ymin -. 1e-9 && y <= ymax +. 1e-9 then begin
          let dy = Float.abs (y -. desired.Point.y) in
          let prune = match !best with Some (_, c) -> dy >= c | None -> false in
          if not prune then begin
            match
              nearest_x_in_row rows.(row) ~w ~xmin ~xmax:(xmax +. w)
                ~desired:desired.Point.x
            with
            | Some x ->
              let cost = dy +. Float.abs (x -. desired.Point.x) in
              (match !best with
              | Some (_, c) when c <= cost -> ()
              | Some _ | None -> best := Some (Point.make x y, cost))
            | None -> ()
          end
        end
      end
    in
    let rec expand r =
      if r <= n_rows then begin
        let continue_ =
          match !best with
          | Some (_, c) -> float_of_int (r - 1) *. h <= c
          | None -> true
        in
        if continue_ then begin
          consider (desired_row + r);
          if r > 0 then consider (desired_row - r);
          expand (r + 1)
        end
      end
    in
    expand 0;
    Option.map fst !best
  end

let find_nearest_matches_reference =
  QCheck.Test.make ~name:"find_nearest = full-scan reference" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = fp () in
      let d, _ = design_with_regs 0 dff1 in
      let pl = Placement.create f d in
      let occ = Legalizer.Occupancy.of_placement pl in
      (* mirror of the occupancy as sorted per-row interval lists,
         maintained with the historical insert/remove code *)
      let rows = Array.make (Floorplan.n_rows f) [] in
      let rows_of_rect (r : Rect.t) =
        let row_floor y =
          let i =
            int_of_float
              (Float.floor ((y -. core.Rect.ly) /. f.Floorplan.row_height))
          in
          max 0 (min (Floorplan.n_rows f - 1) i)
        in
        let lo = row_floor (r.Rect.ly +. 1e-6) in
        let hi = row_floor (r.Rect.hy -. 1e-6) in
        List.init (hi - lo + 1) (fun k -> lo + k)
      in
      let insert_interval intervals (lo, hi) =
        let rec go = function
          | [] -> [ (lo, hi) ]
          | (a, b) :: rest when a < lo -> (a, b) :: go rest
          | rest -> (lo, hi) :: rest
        in
        go intervals
      in
      let mirror_add (r : Rect.t) =
        List.iter
          (fun i -> rows.(i) <- insert_interval rows.(i) (r.Rect.lx, r.Rect.hx))
          (rows_of_rect r)
      in
      let mirror_remove (r : Rect.t) =
        List.iter
          (fun i ->
            let eq (a, b) =
              Float.abs (a -. r.Rect.lx) < 1e-9
              && Float.abs (b -. r.Rect.hx) < 1e-9
            in
            let rec drop_first = function
              | [] -> []
              | iv :: rest -> if eq iv then rest else iv :: drop_first rest
            in
            rows.(i) <- drop_first rows.(i))
          (rows_of_rect r)
      in
      let live = ref [] in
      let random_rect () =
        let w = 0.5 +. Rng.float rng 5.0 in
        let row = Rng.int rng 18 in
        let x = Rng.float rng (24.0 -. w) in
        let y = 1.2 *. float_of_int row in
        Rect.make ~lx:x ~ly:y ~hx:(x +. w) ~hy:(y +. 1.2)
      in
      let ok = ref true in
      for _ = 1 to 40 do
        (* mutate: mostly adds (rows pack up), occasional removes *)
        if !live <> [] && Rng.chance rng 0.2 then begin
          let victim = Rng.pick_list rng !live in
          Legalizer.Occupancy.remove occ victim;
          mirror_remove victim;
          live := List.filter (fun o -> o <> victim) !live
        end
        else begin
          let r = random_rect () in
          Legalizer.Occupancy.add occ r;
          mirror_add r;
          live := r :: !live
        end;
        let w = 0.3 +. Rng.float rng 6.0 in
        let desired = Point.make (Rng.float rng 26.0 -. 1.0) (Rng.float rng 26.0 -. 1.0) in
        let region =
          if Rng.chance rng 0.3 then begin
            let lx = Rng.float rng 20.0 and ly = Rng.float rng 20.0 in
            Some
              (Rect.make ~lx ~ly
                 ~hx:(lx +. 2.0 +. Rng.float rng 8.0)
                 ~hy:(ly +. 1.2 +. Rng.float rng 6.0))
          end
          else None
        in
        let got = Legalizer.Occupancy.find_nearest occ ?region ~w desired in
        let want = reference_find_nearest f rows ?region ~w desired in
        (* bit-for-bit: same Some/None, same exact floats *)
        if got <> want then ok := false
      done;
      !ok)

(* ---- legalize_all ---- *)

let test_legalize_all_removes_overlaps () =
  let rng = Rng.create 5 in
  let d, regs = design_with_regs 40 dff1 in
  let pl = Placement.create (fp ()) d in
  (* random, overlapping, off-grid placement *)
  List.iter
    (fun r ->
      Placement.set pl r
        (Point.make (Rng.float rng 20.0) (Rng.float rng 20.0)))
    regs;
  Legalizer.legalize_all pl;
  checki "no overlaps" 0 (List.length (Placement.overlapping_registers pl));
  List.iter
    (fun r ->
      let f = Placement.footprint pl r in
      check "inside core" true (Rect.contains_rect core f);
      let row = Floorplan.row_of_y (fp ()) f.Rect.ly in
      checkf "row aligned" (Floorplan.row_y (fp ()) row) f.Rect.ly)
    regs

let test_legalize_all_small_displacement () =
  (* an already-legal placement should barely move *)
  let d, regs = design_with_regs 5 dff1 in
  let pl = Placement.create (fp ()) d in
  List.iteri
    (fun i r -> Placement.set pl r (Point.make (2.0 +. (3.0 *. float_of_int i)) 2.4))
    regs;
  let before = Placement.copy pl in
  Legalizer.legalize_all pl;
  let moved = Legalizer.total_displacement ~before ~after:pl in
  check "small displacement" true (moved < 2.0)

let () =
  Alcotest.run "mbr_place"
    [
      ( "floorplan",
        [
          Alcotest.test_case "rows" `Quick test_fp_rows;
          Alcotest.test_case "snap" `Quick test_fp_snap;
          Alcotest.test_case "invalid" `Quick test_fp_invalid;
          Alcotest.test_case "clamp" `Quick test_fp_clamp;
        ] );
      ( "placement",
        [
          Alcotest.test_case "basics" `Quick test_placement_basics;
          Alcotest.test_case "pin location" `Quick test_placement_pin_location;
          Alcotest.test_case "overlapping registers" `Quick test_overlapping_registers;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "stamps follow edits" `Quick test_stamps_follow_edits;
          Alcotest.test_case "stamps of a new net" `Quick test_stamps_new_net;
          Alcotest.test_case "copy keeps its own stamps" `Quick test_stamps_copy;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "fits" `Quick test_occupancy_fits;
          Alcotest.test_case "add/remove" `Quick test_occupancy_add_remove;
          Alcotest.test_case "nearest exact" `Quick test_occupancy_find_nearest_exact;
          Alcotest.test_case "nearest avoids" `Quick test_occupancy_find_nearest_avoids;
          Alcotest.test_case "region constraint" `Quick test_occupancy_region_constraint;
          Alcotest.test_case "full row skipped" `Quick test_occupancy_full_row_skips;
          QCheck_alcotest.to_alcotest occupancy_matches_oracle;
          QCheck_alcotest.to_alcotest find_nearest_matches_reference;
        ] );
      ( "legalize_all",
        [
          Alcotest.test_case "removes overlaps" `Quick test_legalize_all_removes_overlaps;
          Alcotest.test_case "small displacement" `Quick
            test_legalize_all_small_displacement;
        ] );
    ]
