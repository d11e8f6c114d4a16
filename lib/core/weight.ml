module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Hull = Mbr_geom.Hull

type view = {
  cx : float array;
  cy : float array;
  cpos : int array;
  ex : float array;
  ey : float array;
  etag : int array;
  sx : float array;
  sy : float array;
  hull : Hull.t;
  memo : (int, int) Hashtbl.t;
  mutable lookups : int;
}

let max_registers = Sys.int_size - 1

let view ~footprints ~cids entries =
  let n = Array.length footprints in
  if n > max_registers then
    invalid_arg
      (Printf.sprintf "Weight.view: %d registers (at most %d)" n max_registers);
  if Array.length cids <> n then invalid_arg "Weight.view: cids/footprints length";
  (* every footprint corner, owner position alongside, sorted once: a
     member set's corners are this order filtered by its mask *)
  let nc = 4 * n in
  let px = Array.make nc 0.0 and py = Array.make nc 0.0 in
  Array.iteri
    (fun i r ->
      List.iteri
        (fun c (q : Point.t) ->
          px.((4 * i) + c) <- q.x;
          py.((4 * i) + c) <- q.y)
        (Rect.corners r))
    footprints;
  let order = Array.init nc Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare px.(a) px.(b) in
      if c <> 0 then c else Float.compare py.(a) py.(b))
    order;
  let pos = Hashtbl.create (max 16 (2 * n)) in
  Array.iteri (fun i cid -> Hashtbl.replace pos cid i) cids;
  let entries = Array.of_list entries in
  {
    cx = Array.map (fun j -> px.(j)) order;
    cy = Array.map (fun j -> py.(j)) order;
    cpos = Array.map (fun j -> j / 4) order;
    ex = Array.map (fun (_, (p : Point.t)) -> p.x) entries;
    ey = Array.map (fun (_, (p : Point.t)) -> p.y) entries;
    etag =
      Array.map
        (fun (cid, _) -> Option.value (Hashtbl.find_opt pos cid) ~default:(-1))
        entries;
    sx = Array.make nc 0.0;
    sy = Array.make nc 0.0;
    hull = Hull.create nc;
    memo = Hashtbl.create 256;
    lookups = 0;
  }

let count v mask =
  let k = ref 0 in
  for j = 0 to Array.length v.cx - 1 do
    if mask land (1 lsl v.cpos.(j)) <> 0 then begin
      let x = v.cx.(j) and y = v.cy.(j) in
      (* sorted, so a repeated point follows its first copy *)
      if
        !k = 0
        || not
             (Float.abs (x -. v.sx.(!k - 1)) <= 0.0
             && Float.abs (y -. v.sy.(!k - 1)) <= 0.0)
      then begin
        v.sx.(!k) <- x;
        v.sy.(!k) <- y;
        incr k
      end
    end
  done;
  Hull.of_sorted v.hull v.sx v.sy !k;
  if Hull.length v.hull = 0 then 0
  else begin
    let b = Hull.bbox v.hull in
    let c = ref 0 in
    for e = 0 to Array.length v.ex - 1 do
      let tag = v.etag.(e) in
      if tag < 0 || mask land (1 lsl tag) = 0 then begin
        let x = v.ex.(e) and y = v.ey.(e) in
        if
          x >= b.Rect.lx && x <= b.Rect.hx && y >= b.Rect.ly && y <= b.Rect.hy
          && Hull.contains v.hull x y
        then incr c
      end
    done;
    !c
  end

let blockers v mask =
  v.lookups <- v.lookups + 1;
  match Hashtbl.find_opt v.memo mask with
  | Some c -> c
  | None ->
    let c = count v mask in
    Hashtbl.add v.memo mask c;
    c

let lookups v = v.lookups

let sets v = Hashtbl.length v.memo

let formula ~bits ~blockers =
  if bits <= 0 then invalid_arg "Weight.formula: bits <= 0";
  if blockers = 0 then 1.0 /. float_of_int bits
  else if blockers >= bits then infinity
  else float_of_int bits *. (2.0 ** float_of_int blockers)

let candidate_weight ~n_members ~bits ~blockers =
  if n_members <= 1 then 1.0 else formula ~bits ~blockers
