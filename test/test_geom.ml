(* Tests for Mbr_geom: Point, Rect, Hull — including property tests that
   the convex hull contains all input points, is convex and keeps the
   points' bounding box. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Hull = Mbr_geom.Hull

let check = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-9))

let p = Point.make

(* ---- Point ---- *)

let test_point_arith () =
  let a = p 1.0 2.0 and b = p 3.0 5.0 in
  checkf "manhattan" 5.0 (Point.manhattan a b);
  checkf "euclid" (sqrt 13.0) (Point.euclid a b);
  check "midpoint" true (Point.equal (Point.midpoint a b) (p 2.0 3.5));
  check "add" true (Point.equal (Point.add a b) (p 4.0 7.0));
  check "sub" true (Point.equal (Point.sub b a) (p 2.0 3.0));
  check "scale" true (Point.equal (Point.scale 2.0 a) (p 2.0 4.0))

let test_point_centroid () =
  let c = Point.centroid [ p 0.0 0.0; p 2.0 0.0; p 2.0 2.0; p 0.0 2.0 ] in
  check "centroid" true (Point.equal c (p 1.0 1.0))

let test_point_cross () =
  checkf "left turn" 1.0 (Point.cross ~o:(p 0.0 0.0) (p 1.0 0.0) (p 1.0 1.0));
  checkf "right turn" (-1.0) (Point.cross ~o:(p 0.0 0.0) (p 1.0 0.0) (p 1.0 (-1.0)));
  checkf "collinear" 0.0 (Point.cross ~o:(p 0.0 0.0) (p 1.0 1.0) (p 2.0 2.0))

(* ---- Rect ---- *)

let test_rect_basics () =
  let r = Rect.make ~lx:1.0 ~ly:2.0 ~hx:4.0 ~hy:6.0 in
  checkf "width" 3.0 (Rect.width r);
  checkf "height" 4.0 (Rect.height r);
  checkf "area" 12.0 (Rect.area r);
  checkf "half perim" 7.0 (Rect.half_perimeter r);
  check "center" true (Point.equal (Rect.center r) (p 2.5 4.0))

let test_rect_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Rect.make: inverted bounds")
    (fun () -> ignore (Rect.make ~lx:1.0 ~ly:0.0 ~hx:0.0 ~hy:1.0))

let test_rect_contains () =
  let r = Rect.make ~lx:0.0 ~ly:0.0 ~hx:2.0 ~hy:2.0 in
  check "inside" true (Rect.contains r (p 1.0 1.0));
  check "boundary" true (Rect.contains r (p 0.0 2.0));
  check "outside" false (Rect.contains r (p 2.1 1.0))

let test_rect_intersects () =
  let a = Rect.make ~lx:0.0 ~ly:0.0 ~hx:2.0 ~hy:2.0 in
  let b = Rect.make ~lx:1.0 ~ly:1.0 ~hx:3.0 ~hy:3.0 in
  let c = Rect.make ~lx:2.0 ~ly:0.0 ~hx:4.0 ~hy:2.0 in
  let d = Rect.make ~lx:5.0 ~ly:5.0 ~hx:6.0 ~hy:6.0 in
  check "overlap" true (Rect.intersects a b);
  check "touching intersects" true (Rect.intersects a c);
  check "touching not strict" false (Rect.overlaps_strictly a c);
  check "strict overlap" true (Rect.overlaps_strictly a b);
  check "disjoint" false (Rect.intersects a d)

let test_rect_inter () =
  let a = Rect.make ~lx:0.0 ~ly:0.0 ~hx:2.0 ~hy:2.0 in
  let b = Rect.make ~lx:1.0 ~ly:1.0 ~hx:3.0 ~hy:3.0 in
  (match Rect.inter a b with
  | Some r ->
    checkf "inter lx" 1.0 r.Rect.lx;
    checkf "inter hy" 2.0 r.Rect.hy
  | None -> Alcotest.fail "expected intersection");
  check "disjoint inter none" true
    (Rect.inter a (Rect.make ~lx:5.0 ~ly:5.0 ~hx:6.0 ~hy:6.0) = None)

let test_rect_inter_all () =
  let rs =
    [
      Rect.make ~lx:0.0 ~ly:0.0 ~hx:4.0 ~hy:4.0;
      Rect.make ~lx:1.0 ~ly:1.0 ~hx:5.0 ~hy:5.0;
      Rect.make ~lx:2.0 ~ly:0.0 ~hx:3.0 ~hy:6.0;
    ]
  in
  (match Rect.inter_all rs with
  | Some r ->
    checkf "lx" 2.0 r.Rect.lx;
    checkf "hx" 3.0 r.Rect.hx;
    checkf "ly" 1.0 r.Rect.ly;
    checkf "hy" 4.0 r.Rect.hy
  | None -> Alcotest.fail "expected common region");
  check "empty list" true (Rect.inter_all [] = None)

let test_rect_expand () =
  let r = Rect.make ~lx:1.0 ~ly:1.0 ~hx:3.0 ~hy:3.0 in
  let e = Rect.expand r 0.5 in
  checkf "expanded lx" 0.5 e.Rect.lx;
  checkf "expanded hy" 3.5 e.Rect.hy;
  (* over-shrinking collapses to the center *)
  let s = Rect.expand r (-5.0) in
  checkf "collapsed" 0.0 (Rect.area s);
  check "collapsed at center" true (Point.equal (Rect.center r) (Rect.center s))

let test_rect_clamp () =
  let r = Rect.make ~lx:0.0 ~ly:0.0 ~hx:2.0 ~hy:2.0 in
  check "inside unchanged" true (Point.equal (Rect.clamp_point r (p 1.0 1.0)) (p 1.0 1.0));
  check "clamped" true (Point.equal (Rect.clamp_point r (p 9.0 (-3.0))) (p 2.0 0.0))

let test_rect_of_points () =
  let r = Rect.of_points [ p 1.0 5.0; p 3.0 2.0; p 2.0 7.0 ] in
  checkf "lx" 1.0 r.Rect.lx;
  checkf "hx" 3.0 r.Rect.hx;
  checkf "ly" 2.0 r.Rect.ly;
  checkf "hy" 7.0 r.Rect.hy

(* ---- Hull ---- *)

(* A hull built the way the weight kernel builds one: the distinct
   points in lexicographic order, into a buffer. *)
let hull pts =
  let pts = Array.of_list (List.sort_uniq Point.compare_lex pts) in
  let n = Array.length pts in
  let h = Hull.create n in
  Hull.of_sorted h
    (Array.map (fun (q : Point.t) -> q.Point.x) pts)
    (Array.map (fun (q : Point.t) -> q.Point.y) pts)
    n;
  h

let vertices h = List.init (Hull.length h) (Hull.vertex h)

let contains h (q : Point.t) = Hull.contains h q.Point.x q.Point.y

(* shoelace over the vertices, counter-clockwise *)
let area h =
  let arr = Array.of_list (vertices h) in
  let n = Array.length arr in
  if n < 3 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let a = arr.(i) and b = arr.((i + 1) mod n) in
      acc := !acc +. ((a.Point.x *. b.Point.y) -. (b.Point.x *. a.Point.y))
    done;
    !acc /. 2.0
  end

let test_hull_square () =
  let pts = [ p 0.0 0.0; p 2.0 0.0; p 2.0 2.0; p 0.0 2.0; p 1.0 1.0 ] in
  let h = hull pts in
  Alcotest.(check int) "4 vertices" 4 (Hull.length h);
  check "interior point dropped" true
    (not (List.exists (fun q -> Point.equal q (p 1.0 1.0)) (vertices h)))

let test_hull_collinear () =
  let h = hull [ p 0.0 0.0; p 1.0 1.0; p 2.0 2.0; p 3.0 3.0 ] in
  Alcotest.(check int) "segment" 2 (Hull.length h)

let test_hull_degenerate () =
  Alcotest.(check int) "empty" 0 (Hull.length (hull []));
  Alcotest.(check int) "point" 1 (Hull.length (hull [ p 1.0 1.0 ]));
  Alcotest.(check int) "dup points" 1
    (Hull.length (hull [ p 1.0 1.0; p 1.0 1.0 ]))

let test_hull_contains () =
  let h = hull [ p 0.0 0.0; p 4.0 0.0; p 4.0 4.0; p 0.0 4.0 ] in
  check "inside" true (contains h (p 2.0 2.0));
  check "vertex" true (contains h (p 0.0 0.0));
  check "edge" true (contains h (p 2.0 0.0));
  check "outside" false (contains h (p 5.0 2.0));
  check "outside diagonal" false (contains h (p 4.1 4.1))

let test_hull_contains_degenerate () =
  check "single point yes" true (contains (hull [ p 1.0 1.0 ]) (p 1.0 1.0));
  check "single point no" false (contains (hull [ p 1.0 1.0 ]) (p 1.0 1.1));
  let seg = hull [ p 0.0 0.0; p 2.0 2.0 ] in
  check "on segment" true (contains seg (p 1.0 1.0));
  check "off segment" false (contains seg (p 1.0 0.0));
  check "empty hull" false (contains (hull []) (p 0.0 0.0))

let test_hull_area () =
  let h = hull [ p 0.0 0.0; p 2.0 0.0; p 2.0 3.0; p 0.0 3.0 ] in
  checkf "area" 6.0 (area h);
  checkf "triangle" 2.0 (area (hull [ p 0.0 0.0; p 2.0 0.0; p 0.0 2.0 ]))

let test_hull_of_rects () =
  let rects =
    [
      Rect.make ~lx:0.0 ~ly:0.0 ~hx:1.0 ~hy:1.0;
      Rect.make ~lx:3.0 ~ly:3.0 ~hx:4.0 ~hy:4.0;
    ]
  in
  let h = hull (List.concat_map Rect.corners rects) in
  Alcotest.(check int) "hexagon" 6 (Hull.length h);
  check "contains between" true (contains h (p 2.0 2.0));
  check "not corner" false (contains h (p 0.0 4.0))

(* ---- properties ---- *)

let point_gen =
  QCheck.Gen.map2 (fun x y -> p (Float.of_int x /. 4.0) (Float.of_int y /. 4.0))
    (QCheck.Gen.int_range (-40) 40) (QCheck.Gen.int_range (-40) 40)

let points_arb =
  QCheck.make
    ~print:(fun pts ->
      String.concat ";"
        (List.map (fun (q : Point.t) -> Printf.sprintf "(%g,%g)" q.Point.x q.Point.y) pts))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 3 25) point_gen)

let hull_contains_all =
  QCheck.Test.make ~name:"hull contains all input points" ~count:300 points_arb
    (fun pts ->
      let h = hull pts in
      List.for_all (contains h) pts)

let hull_is_convex =
  QCheck.Test.make ~name:"hull vertices are in convex position (CCW)" ~count:300
    points_arb (fun pts ->
      let h = hull pts in
      match vertices h with
      | [] | [ _ ] | [ _; _ ] -> true
      | vs ->
        let arr = Array.of_list vs in
        let n = Array.length arr in
        let ok = ref true in
        for i = 0 to n - 1 do
          let a = arr.(i) and b = arr.((i + 1) mod n) and c = arr.((i + 2) mod n) in
          if Point.cross ~o:a b c <= 1e-12 then ok := false
        done;
        !ok)

let hull_idempotent =
  QCheck.Test.make ~name:"hull of hull = hull" ~count:300 points_arb (fun pts ->
      let h = hull pts in
      let h2 = hull (vertices h) in
      Hull.length h = Hull.length h2)

let hull_bbox_consistent =
  QCheck.Test.make ~name:"hull bbox = points bbox" ~count:300 points_arb
    (fun pts ->
      match pts with
      | [] -> true
      | _ -> Hull.bbox (hull pts) = Rect.of_points pts)

let () =
  Alcotest.run "mbr_geom"
    [
      ( "point",
        [
          Alcotest.test_case "arith" `Quick test_point_arith;
          Alcotest.test_case "centroid" `Quick test_point_centroid;
          Alcotest.test_case "cross" `Quick test_point_cross;
        ] );
      ( "rect",
        [
          Alcotest.test_case "basics" `Quick test_rect_basics;
          Alcotest.test_case "invalid" `Quick test_rect_invalid;
          Alcotest.test_case "contains" `Quick test_rect_contains;
          Alcotest.test_case "intersects" `Quick test_rect_intersects;
          Alcotest.test_case "inter" `Quick test_rect_inter;
          Alcotest.test_case "inter_all" `Quick test_rect_inter_all;
          Alcotest.test_case "expand" `Quick test_rect_expand;
          Alcotest.test_case "clamp" `Quick test_rect_clamp;
          Alcotest.test_case "of_points" `Quick test_rect_of_points;
        ] );
      ( "hull",
        [
          Alcotest.test_case "square" `Quick test_hull_square;
          Alcotest.test_case "collinear" `Quick test_hull_collinear;
          Alcotest.test_case "degenerate" `Quick test_hull_degenerate;
          Alcotest.test_case "contains" `Quick test_hull_contains;
          Alcotest.test_case "contains degenerate" `Quick test_hull_contains_degenerate;
          Alcotest.test_case "area" `Quick test_hull_area;
          Alcotest.test_case "of_rects" `Quick test_hull_of_rects;
          QCheck_alcotest.to_alcotest hull_contains_all;
          QCheck_alcotest.to_alcotest hull_is_convex;
          QCheck_alcotest.to_alcotest hull_idempotent;
          QCheck_alcotest.to_alcotest hull_bbox_consistent;
        ] );
    ]
