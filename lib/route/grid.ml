module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect

type t = {
  core : Rect.t;
  gcell : float;
  nx : int;
  ny : int;
  cap_h : float;
  cap_v : float;
  (* h_dem.(j).(i): edge between tile (i, j) and (i+1, j); nx-1 per row *)
  h_dem : float array array;
  (* v_dem.(j).(i): edge between tile (i, j) and (i, j+1); ny-1 rows *)
  v_dem : float array array;
}

let create ~core ~gcell ~cap_h ~cap_v =
  if gcell <= 0.0 then invalid_arg "Grid.create: non-positive gcell";
  let nx = max 1 (int_of_float (ceil (Rect.width core /. gcell))) in
  let ny = max 1 (int_of_float (ceil (Rect.height core /. gcell))) in
  {
    core;
    gcell;
    nx;
    ny;
    cap_h;
    cap_v;
    h_dem = Array.init ny (fun _ -> Array.make (max 0 (nx - 1)) 0.0);
    v_dem = Array.init (max 0 (ny - 1)) (fun _ -> Array.make nx 0.0);
  }

let nx t = t.nx

let ny t = t.ny

let imin (a : int) b = if a < b then a else b

let imax (a : int) b = if a > b then a else b

(* [v] clamped into [0, n-1] *)
let clamp n (v : int) = if v < 0 then 0 else if v >= n then n - 1 else v

let[@inline] tile_x t x = clamp t.nx (int_of_float ((x -. t.core.Rect.lx) /. t.gcell))

let[@inline] tile_y t y = clamp t.ny (int_of_float ((y -. t.core.Rect.ly) /. t.gcell))

let col t (p : Point.t) = tile_x t p.x

let row t (p : Point.t) = tile_y t p.y

let tile_of t p = (col t p, row t p)

(* Demand on the horizontal edges of tile row [j] between tile columns
   [i0] and [i1] (either order), and on the vertical edges of tile
   column [i] between rows [j0] and [j1]. Inlined so a caller's float
   [demand] never needs boxing. *)
let[@inline] h_run t ~j ~i0 ~i1 demand =
  let edges = t.h_dem.(j) in
  for i = imin i0 i1 to imax i0 i1 - 1 do
    edges.(i) <- edges.(i) +. demand
  done

let[@inline] v_run t ~i ~j0 ~j1 demand =
  for j = imin j0 j1 to imax j0 j1 - 1 do
    let edges = t.v_dem.(j) in
    edges.(i) <- edges.(i) +. demand
  done

(* The tile map is monotone, so the tiles of a segment's min/max
   coordinates are the min/max of its end tiles. *)
let add_h_segment t ~y ~x0 ~x1 ~demand =
  h_run t ~j:(tile_y t y) ~i0:(tile_x t x0) ~i1:(tile_x t x1) demand

let add_v_segment t ~x ~y0 ~y1 ~demand =
  v_run t ~i:(tile_x t x) ~j0:(tile_y t y0) ~j1:(tile_y t y1) demand

let route_l_tiles t ~ai ~aj ~bi ~bj ~demand =
  let half = demand /. 2.0 in
  (* lower L: horizontal at a's row then vertical at b's column *)
  h_run t ~j:aj ~i0:ai ~i1:bi half;
  v_run t ~i:bi ~j0:aj ~j1:bj half;
  (* upper L: vertical at a's column then horizontal at b's row *)
  v_run t ~i:ai ~j0:aj ~j1:bj half;
  h_run t ~j:bj ~i0:ai ~i1:bi half

let route_l t a b ~demand =
  route_l_tiles t ~ai:(col t a) ~aj:(row t a) ~bi:(col t b) ~bj:(row t b) ~demand

let fold_edges t f init =
  let acc = ref init in
  Array.iter
    (fun row -> Array.iter (fun d -> acc := f !acc `H d) row)
    t.h_dem;
  Array.iter
    (fun row -> Array.iter (fun d -> acc := f !acc `V d) row)
    t.v_dem;
  !acc

let overflow_edges t =
  fold_edges t
    (fun acc dir d ->
      let cap = match dir with `H -> t.cap_h | `V -> t.cap_v in
      if d > cap +. 1e-9 then acc + 1 else acc)
    0

let max_utilization t =
  fold_edges t
    (fun acc dir d ->
      let cap = match dir with `H -> t.cap_h | `V -> t.cap_v in
      Float.max acc (if cap > 0.0 then d /. cap else 0.0))
    0.0

let total_demand t = fold_edges t (fun acc _ d -> acc +. d) 0.0

let reset t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) t.h_dem;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) t.v_dem
