module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
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
  net_hpwl : float array;
}

(* Pin coordinates of the current net, one buffer per axis, reused
   across nets and sorted in place. *)
type buffers = { mutable xs : float array; mutable ys : float array }

(* The current net's star: centre, HPWL, and the running star
   wirelength. All-float, so updates never box. *)
type star = {
  mutable cx : float;
  mutable cy : float;
  mutable hpwl : float;
  mutable wl : float;
}

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

let buffers () = { xs = Array.make 64 0.0; ys = Array.make 64 0.0 }

let star () = { cx = 0.0; cy = 0.0; hpwl = 0.0; wl = 0.0 }

(* Manhattan length of the star branch to [p]. *)
let[@inline] branch st (p : Point.t) =
  Float.abs (st.cx -. p.x) +. Float.abs (st.cy -. p.y)

let net_star_wl pl nid =
  let pts = Placement.net_pin_points pl nid in
  match pts with
  | [] | [ _ ] -> 0.0
  | _ ->
    let st = star () in
    load (buffers ()) st pts (List.length pts);
    List.fold_left (fun acc (_, _, p) -> acc +. branch st p) 0.0 pts

let net_hpwl pl nid =
  match Placement.net_box pl nid with
  | Some r -> Rect.half_perimeter r
  | None -> 0.0

let estimate ?(config = default_config) pl =
  let dsg = Placement.design pl in
  let fp = Placement.floorplan pl in
  let grid =
    Grid.create ~core:fp.Floorplan.core ~gcell:config.gcell ~cap_h:config.cap_h
      ~cap_v:config.cap_v
  in
  let net_hpwl = Array.make (Design.n_nets dsg) 0.0 in
  let b = buffers () and st = star () in
  (* star branches into the wirelength and the grid, in pin order *)
  let rec route ci cj = function
    | [] -> ()
    | (_, _, (p : Point.t)) :: rest ->
      st.wl <- st.wl +. branch st p;
      Grid.route_l_tiles grid ~ai:ci ~aj:cj ~bi:(Grid.col grid p)
        ~bj:(Grid.row grid p) ~demand:1.0;
      route ci cj rest
  in
  let n_routed = ref 0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    let n = Design.net dsg nid in
    (* a net with fewer than 2 pins cannot route: skip it before
       touching the placement's cache *)
    let routable =
      match n.Types.n_pins with [] | [ _ ] -> false | _ :: _ :: _ -> true
    in
    if routable && not n.Types.n_is_clock then begin
      match Placement.net_pin_points pl nid with
      | [] | [ _ ] -> ()
      | pts ->
        load b st pts (List.length pts);
        net_hpwl.(nid) <- st.hpwl;
        let c = { Point.x = st.cx; y = st.cy } in
        route (Grid.col grid c) (Grid.row grid c) pts;
        incr n_routed
    end
  done;
  {
    signal_wl = st.wl;
    overflow_edges = Grid.overflow_edges grid;
    max_utilization = Grid.max_utilization grid;
    n_routed_nets = !n_routed;
    net_hpwl;
  }
