type t = { lx : float; ly : float; hx : float; hy : float }

let make ~lx ~ly ~hx ~hy =
  if hx < lx || hy < ly then invalid_arg "Rect.make: inverted bounds";
  { lx; ly; hx; hy }

let of_points = function
  | [] -> invalid_arg "Rect.of_points: empty"
  | (p : Point.t) :: rest ->
    let f (r : t) (q : Point.t) =
      {
        lx = Float.min r.lx q.x;
        ly = Float.min r.ly q.y;
        hx = Float.max r.hx q.x;
        hy = Float.max r.hy q.y;
      }
    in
    List.fold_left f { lx = p.x; ly = p.y; hx = p.x; hy = p.y } rest

let width r = r.hx -. r.lx

let height r = r.hy -. r.ly

let area r = width r *. height r

let half_perimeter r = width r +. height r

let center r = Point.make ((r.lx +. r.hx) /. 2.0) ((r.ly +. r.hy) /. 2.0)

let corners r =
  [
    Point.make r.lx r.ly;
    Point.make r.hx r.ly;
    Point.make r.hx r.hy;
    Point.make r.lx r.hy;
  ]

let contains r (p : Point.t) =
  p.x >= r.lx && p.x <= r.hx && p.y >= r.ly && p.y <= r.hy

let contains_rect outer inner =
  inner.lx >= outer.lx && inner.ly >= outer.ly && inner.hx <= outer.hx
  && inner.hy <= outer.hy

let intersects a b =
  a.lx <= b.hx && b.lx <= a.hx && a.ly <= b.hy && b.ly <= a.hy

let overlaps_strictly ?(eps = 1e-9) a b =
  a.lx < b.hx -. eps && b.lx < a.hx -. eps && a.ly < b.hy -. eps
  && b.ly < a.hy -. eps

let inter a b =
  let lx = Float.max a.lx b.lx and ly = Float.max a.ly b.ly in
  let hx = Float.min a.hx b.hx and hy = Float.min a.hy b.hy in
  if hx < lx || hy < ly then None else Some { lx; ly; hx; hy }

let inter_all = function
  | [] -> None
  | r :: rest ->
    List.fold_left
      (fun acc b -> match acc with None -> None | Some a -> inter a b)
      (Some r) rest

let union a b =
  {
    lx = Float.min a.lx b.lx;
    ly = Float.min a.ly b.ly;
    hx = Float.max a.hx b.hx;
    hy = Float.max a.hy b.hy;
  }

let expand r d =
  let lx = r.lx -. d and ly = r.ly -. d in
  let hx = r.hx +. d and hy = r.hy +. d in
  if hx >= lx && hy >= ly then { lx; ly; hx; hy }
  else begin
    let c = center r in
    { lx = c.x; ly = c.y; hx = c.x; hy = c.y }
  end

let clamp_point r (p : Point.t) =
  Point.make (Float.max r.lx (Float.min r.hx p.x))
    (Float.max r.ly (Float.min r.hy p.y))

let translate r (d : Point.t) =
  { lx = r.lx +. d.x; ly = r.ly +. d.y; hx = r.hx +. d.x; hy = r.hy +. d.y }

let pp ppf r =
  Format.fprintf ppf "[%.3f, %.3f]x[%.3f, %.3f]" r.lx r.hx r.ly r.hy
