type t = { mutable len : int; xs : float array; ys : float array }

(* The monotone chain's stack holds the lower chain plus the upper one:
   at most 2n entries for n input points. *)
let create capacity =
  if capacity < 0 then invalid_arg "Hull.create: negative capacity";
  let cap = (2 * capacity) + 1 in
  { len = 0; xs = Array.make cap 0.0; ys = Array.make cap 0.0 }

let length h = h.len

let vertex h i =
  if i < 0 || i >= h.len then invalid_arg "Hull.vertex: index out of range";
  Point.make h.xs.(i) h.ys.(i)

(* Point.cross ~o a b, on coordinates *)
let cross ox oy ax ay bx by =
  ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))

(* Andrew's monotone chain over the stack [h.xs]/[h.ys]: the lower
   chain left to right, then the upper chain right to left on top of
   it; a point pops the top while the turn to it is not strictly left
   (so collinear boundary points are dropped). The upper chain ends on
   the first point again, which is not kept. *)
let of_sorted h xs ys n =
  if n < 0 || (2 * n) + 1 > Array.length h.xs then
    invalid_arg "Hull.of_sorted: more points than the buffer holds";
  if n <= 2 then begin
    Array.blit xs 0 h.xs 0 n;
    Array.blit ys 0 h.ys 0 n;
    h.len <- n
  end
  else begin
    let hx = h.xs and hy = h.ys in
    let k = ref 0 in
    let push floor i =
      let px = xs.(i) and py = ys.(i) in
      while
        !k >= floor
        && cross hx.(!k - 2) hy.(!k - 2) hx.(!k - 1) hy.(!k - 1) px py <= 0.0
      do
        decr k
      done;
      hx.(!k) <- px;
      hy.(!k) <- py;
      incr k
    in
    for i = 0 to n - 1 do
      push 2 i
    done;
    let floor = !k + 1 in
    for i = n - 2 downto 0 do
      push floor i
    done;
    (* both chains hold at least their two end points, so three or more
       distinct points always leave at least two vertices *)
    h.len <- !k - 1
  end

let euclid ax ay bx by =
  let dx = ax -. bx and dy = ay -. by in
  sqrt ((dx *. dx) +. (dy *. dy))

let seg_distance ax ay bx by px py =
  let abx = bx -. ax and aby = by -. ay in
  let len2 = (abx *. abx) +. (aby *. aby) in
  if len2 <= 0.0 then euclid ax ay px py
  else begin
    let t = (((px -. ax) *. abx) +. ((py -. ay) *. aby)) /. len2 in
    let t = Float.max 0.0 (Float.min 1.0 t) in
    euclid (ax +. (t *. abx)) (ay +. (t *. aby)) px py
  end

let contains h px py =
  let xs = h.xs and ys = h.ys in
  match h.len with
  | 0 -> false
  | 1 -> euclid xs.(0) ys.(0) px py <= 1e-9
  | 2 -> seg_distance xs.(0) ys.(0) xs.(1) ys.(1) px py <= 1e-9
  | n ->
    let rec edges i =
      if i = n then true
      else begin
        let j = if i = n - 1 then 0 else i + 1 in
        (not (cross xs.(i) ys.(i) xs.(j) ys.(j) px py < -1e-9)) && edges (i + 1)
      end
    in
    edges 0

let bbox h =
  if h.len = 0 then invalid_arg "Hull.bbox: empty hull";
  let lx = ref h.xs.(0) and hx = ref h.xs.(0) in
  let ly = ref h.ys.(0) and hy = ref h.ys.(0) in
  for i = 1 to h.len - 1 do
    lx := Float.min !lx h.xs.(i);
    hx := Float.max !hx h.xs.(i);
    ly := Float.min !ly h.ys.(i);
    hy := Float.max !hy h.ys.(i)
  done;
  { Rect.lx = !lx; ly = !ly; hx = !hx; hy = !hy }
