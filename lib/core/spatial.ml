module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect

type 'a t = {
  bucket : float;
  cells : (int, ('a * Point.t) list) Hashtbl.t;
  mutable n : int;
}

let create ?(bucket = 25.0) () =
  if bucket <= 0.0 then invalid_arg "Spatial.create: bucket <= 0";
  { bucket; cells = Hashtbl.create 256; n = 0 }

(* Grid coordinates packed into one non-negative int (2^30 offset per
   axis) so bucket lookups hash an immediate instead of a boxed pair. *)
let grid_offset = 0x4000_0000

let pack_cell i j = ((i + grid_offset) lsl 31) lor (j + grid_offset)

let key t (p : Point.t) =
  pack_cell
    (int_of_float (Float.floor (p.x /. t.bucket)))
    (int_of_float (Float.floor (p.y /. t.bucket)))

let add t v p =
  let k = key t p in
  let cur = match Hashtbl.find_opt t.cells k with Some l -> l | None -> [] in
  Hashtbl.replace t.cells k ((v, p) :: cur);
  t.n <- t.n + 1

let query_rect t (r : Rect.t) =
  let i0 = int_of_float (Float.floor (r.Rect.lx /. t.bucket)) in
  let i1 = int_of_float (Float.floor (r.Rect.hx /. t.bucket)) in
  let j0 = int_of_float (Float.floor (r.Rect.ly /. t.bucket)) in
  let j1 = int_of_float (Float.floor (r.Rect.hy /. t.bucket)) in
  let acc = ref [] in
  for i = i0 to i1 do
    for j = j0 to j1 do
      match Hashtbl.find_opt t.cells (pack_cell i j) with
      | Some l ->
        List.iter (fun ((_, p) as entry) -> if Rect.contains r p then acc := entry :: !acc) l
      | None -> ()
    done
  done;
  !acc

let size t = t.n
