module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Floorplan = Mbr_place.Floorplan

type config = { gcell : float; cap_h : float; cap_v : float }

let default_config = { gcell = 10.0; cap_h = 14.0; cap_v = 12.0 }

type result = {
  signal_wl : float;
  overflow_edges : int;
  max_utilization : float;
  n_routed_nets : int;
  nets_swept : int;
}

(* Pin coordinates of the current net, one buffer per axis, reused
   across nets and sorted in place. *)
type buffers = { mutable xs : float array; mutable ys : float array }

(* The current net's star: centre and HPWL. All-float, so updates never
   box. *)
type star = { mutable cx : float; mutable cy : float; mutable hpwl : float }

(* Nets up to this many pins sort by insertion; larger ones (reset and
   scan-enable nets reach hundreds of pins) by heapsort, so the sweep
   stays O(k log k) per net. *)
let small_net = 16

let insertion_sort (a : float array) n =
  for i = 1 to n - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let heap_sort (a : float array) n =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift 0 last
  done

let sort_prefix a n = if n <= small_net then insertion_sort a n else heap_sort a n

(* A median is an order statistic: any correct sort yields the same
   value. *)
let[@inline] median_sorted (a : float array) n =
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rec fill (b : buffers) i = function
  | [] -> ()
  | (_, _, (p : Point.t)) :: rest ->
    b.xs.(i) <- p.x;
    b.ys.(i) <- p.y;
    fill b (i + 1) rest

(* Load a net's placed pins ([k >= 2] of them) and set the star centre
   (per-axis pin median) and the HPWL, both from one sort per axis. *)
let load b st pts k =
  if k > Array.length b.xs then begin
    let cap = max k (2 * Array.length b.xs) in
    b.xs <- Array.make cap 0.0;
    b.ys <- Array.make cap 0.0
  end;
  fill b 0 pts;
  sort_prefix b.xs k;
  sort_prefix b.ys k;
  st.cx <- median_sorted b.xs k;
  st.cy <- median_sorted b.ys k;
  st.hpwl <- b.xs.(k - 1) -. b.xs.(0) +. (b.ys.(k - 1) -. b.ys.(0))

(* Manhattan length of the star branch to [p]. *)
let[@inline] branch st (p : Point.t) =
  Float.abs (st.cx -. p.x) +. Float.abs (st.cy -. p.y)

(* A tile [(i, j)] packed into one int. *)
let tile_bits = 31

let tile_mask = (1 lsl tile_bits) - 1

let[@inline] pack i j = (i lsl tile_bits) lor j

(* Per net: the stamp it was last swept at and, while it is routed, its
   HPWL, centre tile and a slot of [pins] entries in the two pools,
   which hold its branch lengths and pin tiles in pin order. A re-sweep
   that finds no more pins than the net last routed reuses its slot;
   otherwise the net gets a fresh one at the end, and a full pool is
   compacted in net order into pools twice the live size. *)
type t = {
  pl : Placement.t;
  grid : Grid.t;
  b : buffers;
  st : star;
  mutable swept : int array;  (* stamp at the last sweep, -1 before *)
  mutable hpwl : float array;  (* 0 unless routed *)
  mutable centre : int array;  (* packed tile *)
  mutable first : int array;  (* first pool slot *)
  mutable pins : int array;  (* routed pins; 0 when not routed *)
  mutable branch : float array;  (* pool *)
  mutable tile : int array;  (* pool, packed *)
  mutable used : int;  (* pool slots handed out, live or not *)
  mutable live : int;  (* pool slots of routed nets *)
  mutable n_routed : int;
}

let create ?(config = default_config) pl =
  let dsg = Placement.design pl in
  let fp = Placement.floorplan pl in
  let n = Design.n_nets dsg in
  (* a pin sits on one net at a time, so the first pass fits *)
  let pool = Design.n_pins dsg in
  {
    pl;
    grid =
      Grid.create ~core:fp.Floorplan.core ~gcell:config.gcell ~cap_h:config.cap_h
        ~cap_v:config.cap_v;
    b = { xs = Array.make 64 0.0; ys = Array.make 64 0.0 };
    st = { cx = 0.0; cy = 0.0; hpwl = 0.0 };
    swept = Array.make n (-1);
    hpwl = Array.make n 0.0;
    centre = Array.make n 0;
    first = Array.make n 0;
    pins = Array.make n 0;
    branch = Array.make pool 0.0;
    tile = Array.make pool 0;
    used = 0;
    live = 0;
    n_routed = 0;
  }

let placement t = t.pl

(* The per-net arrays cover every net of the design; a net added since
   the last update reads as never swept. *)
let grow_nets t n =
  let old = Array.length t.swept in
  if n > old then begin
    let cap = max n (2 * old) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.swept <- grow t.swept (-1);
    t.hpwl <- grow t.hpwl 0.0;
    t.centre <- grow t.centre 0;
    t.first <- grow t.first 0;
    t.pins <- grow t.pins 0
  end

(* Copy every routed net's slot, in net order, into fresh pools with
   room for [k] more entries. *)
let compact t k =
  let cap = max 1024 (2 * (t.live + k)) in
  let branch = Array.make cap 0.0 and tile = Array.make cap 0 in
  let used = ref 0 in
  Array.iteri
    (fun nid k ->
      if k > 0 then begin
        Array.blit t.branch t.first.(nid) branch !used k;
        Array.blit t.tile t.first.(nid) tile !used k;
        t.first.(nid) <- !used;
        used := !used + k
      end)
    t.pins;
  t.branch <- branch;
  t.tile <- tile;
  t.used <- !used

(* The slot for [k] entries of a net whose released slot held [k0]
   from [first]. *)
let slot t ~first ~k0 k =
  if k <= k0 then first
  else begin
    if t.used + k > Array.length t.tile then compact t k;
    let f = t.used in
    t.used <- f + k;
    f
  end

(* Star branches into the pool and onto the grid, in pin order. *)
let rec route t ai aj s = function
  | [] -> ()
  | (_, _, (p : Point.t)) :: rest ->
    let bi = Grid.col t.grid p and bj = Grid.row t.grid p in
    t.branch.(s) <- branch t.st p;
    t.tile.(s) <- pack bi bj;
    Grid.route_l_tiles t.grid ~ai ~aj ~bi ~bj ~demand:1.0;
    route t ai aj (s + 1) rest

(* Re-sweep one net: take its old L-runs off the grid with demand -1.0
   (every edge's demand is a multiple of 0.5, so this is exact), then,
   if it still routes, sort, centre and route it as on a fresh state. *)
let sweep t dsg nid =
  let k0 = t.pins.(nid) and first = t.first.(nid) in
  if k0 > 0 then begin
    let c = t.centre.(nid) in
    let ai = c lsr tile_bits and aj = c land tile_mask in
    for s = first to first + k0 - 1 do
      let p = t.tile.(s) in
      Grid.route_l_tiles t.grid ~ai ~aj ~bi:(p lsr tile_bits)
        ~bj:(p land tile_mask) ~demand:(-1.0)
    done;
    t.pins.(nid) <- 0;
    t.hpwl.(nid) <- 0.0;
    t.live <- t.live - k0;
    t.n_routed <- t.n_routed - 1
  end;
  let n = Design.net dsg nid in
  (* a net with fewer than 2 pins cannot route: skip it before touching
     the placement's cache *)
  let routable =
    match n.Types.n_pins with [] | [ _ ] -> false | _ :: _ :: _ -> true
  in
  if routable && not n.Types.n_is_clock then
    match Placement.net_pin_points t.pl nid with
    | [] | [ _ ] -> ()
    | pts ->
      let k = List.length pts and st = t.st in
      load t.b st pts k;
      let c = { Point.x = st.cx; y = st.cy } in
      let ai = Grid.col t.grid c and aj = Grid.row t.grid c in
      let f = slot t ~first ~k0 k in
      route t ai aj f pts;
      t.centre.(nid) <- pack ai aj;
      t.first.(nid) <- f;
      t.pins.(nid) <- k;
      t.hpwl.(nid) <- st.hpwl;
      t.live <- t.live + k;
      t.n_routed <- t.n_routed + 1

let swept_at t nid = if nid < Array.length t.swept then t.swept.(nid) else -1

let stale t =
  let c = ref 0 in
  for nid = 0 to Design.n_nets (Placement.design t.pl) - 1 do
    if Placement.net_stamp t.pl nid <> swept_at t nid then incr c
  done;
  !c

let update t =
  let dsg = Placement.design t.pl in
  let n = Design.n_nets dsg in
  grow_nets t n;
  let swept = ref 0 in
  for nid = 0 to n - 1 do
    let s = Placement.net_stamp t.pl nid in
    if s <> t.swept.(nid) then begin
      t.swept.(nid) <- s;
      incr swept;
      sweep t dsg nid
    end
  done;
  (* one running sum in net order, then pin order, from 0.0: the order
     a fresh state's sweep adds the branches in *)
  let wl = ref 0.0 in
  for nid = 0 to n - 1 do
    let f = t.first.(nid) in
    for s = f to f + t.pins.(nid) - 1 do
      wl := !wl +. t.branch.(s)
    done
  done;
  {
    signal_wl = !wl;
    overflow_edges = Grid.overflow_edges t.grid;
    max_utilization = Grid.max_utilization t.grid;
    n_routed_nets = t.n_routed;
    nets_swept = !swept;
  }

let estimate ?config pl = update (create ?config pl)

let hpwl t nid = if nid < Array.length t.hpwl then t.hpwl.(nid) else 0.0

let total_demand t = Grid.total_demand t.grid
