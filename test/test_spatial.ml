(* Spatial grid index: add/query behaviour, on fixed points and against
   a list model over a churning population. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Spatial = Mbr_core.Spatial
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_add_query () =
  let t = Spatial.create ~bucket:10.0 () in
  Spatial.add t 1 (Point.make 5.0 5.0);
  Spatial.add t 2 (Point.make 15.0 5.0);
  Spatial.add t 3 (Point.make 95.0 95.0);
  check_int "size" 3 (Spatial.size t);
  let hits =
    Spatial.query_rect t (Rect.make ~lx:0.0 ~ly:0.0 ~hx:20.0 ~hy:10.0)
  in
  check_int "two in box" 2 (List.length hits);
  check "ids" true
    (List.sort compare (List.map fst hits) = [ 1; 2 ])

(* Random add/remove/move churn of a point population; every 100 steps
   an index built afresh from the live population must answer a random
   query exactly like a naive list model. *)
let test_churn_matches_model () =
  let rng = Rng.create 4242 in
  let model = ref [] in
  let random_point () =
    Point.make (Rng.float_in rng 0.0 100.0) (Rng.float_in rng 0.0 100.0)
  in
  for step = 1 to 2000 do
    (if Rng.chance rng 0.55 || !model = [] then
       model := (step, random_point ()) :: !model
     else
       let v, _ = List.nth !model (Rng.int rng (List.length !model)) in
       if Rng.chance rng 0.5 then
         model := List.filter (fun (v', _) -> v' <> v) !model
       else
         let q = random_point () in
         model := List.map (fun (v', p) -> if v' = v then (v', q) else (v', p)) !model);
    if step mod 100 = 0 then begin
      let t = Spatial.create ~bucket:7.5 () in
      List.iter (fun (v, p) -> Spatial.add t v p) !model;
      check_int "size" (List.length !model) (Spatial.size t);
      let lx = Rng.float_in rng 0.0 80.0 in
      let ly = Rng.float_in rng 0.0 80.0 in
      let r = Rect.make ~lx ~ly ~hx:(lx +. 30.0) ~hy:(ly +. 30.0) in
      let got = List.sort compare (List.map fst (Spatial.query_rect t r)) in
      let want =
        List.sort compare
          (List.filter_map
             (fun (v, p) -> if Rect.contains r p then Some v else None)
             !model)
      in
      check "query matches model" true (got = want)
    end
  done

let () =
  Alcotest.run "mbr_core.spatial"
    [
      ( "spatial",
        [
          Alcotest.test_case "add/query" `Quick test_add_query;
          Alcotest.test_case "churn vs model" `Quick test_churn_matches_model;
        ] );
    ]
