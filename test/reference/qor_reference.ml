(* The QoR pass as it stood before the single-sweep rewrite, kept
   verbatim as the reference the equivalence tests compare against:
   the routing estimator (pins re-derived from Design + Placement,
   list medians, the Point-based grid clamps), the power signal-cap
   loop (per-net HPWL, driver and sinks each walk the pins), the CTS
   split with its polymorphic key-tuple comparator, and the snapshot
   that strings them together. Test code only; nothing in lib/ may
   depend on it. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Floorplan = Mbr_place.Floorplan
module Cell_lib = Mbr_liberty.Cell
module Engine = Mbr_sta.Engine
module Estimator = Mbr_route.Estimator
module Synth = Mbr_cts.Synth
module Power = Mbr_core.Power
module Metrics = Mbr_core.Metrics
module Compat = Mbr_core.Compat

module Grid = struct
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

  let clamp lo hi v = max lo (min hi v)

  let tile_of t (p : Point.t) =
    let i = int_of_float ((p.x -. t.core.Rect.lx) /. t.gcell) in
    let j = int_of_float ((p.y -. t.core.Rect.ly) /. t.gcell) in
    (clamp 0 (t.nx - 1) i, clamp 0 (t.ny - 1) j)

  let add_h_segment t ~y ~x0 ~x1 ~demand =
    let i0, j = tile_of t (Point.make (Float.min x0 x1) y) in
    let i1, _ = tile_of t (Point.make (Float.max x0 x1) y) in
    for i = i0 to i1 - 1 do
      t.h_dem.(j).(i) <- t.h_dem.(j).(i) +. demand
    done

  let add_v_segment t ~x ~y0 ~y1 ~demand =
    let i, j0 = tile_of t (Point.make x (Float.min y0 y1)) in
    let _, j1 = tile_of t (Point.make x (Float.max y0 y1)) in
    for j = j0 to j1 - 1 do
      t.v_dem.(j).(i) <- t.v_dem.(j).(i) +. demand
    done

  let route_l t (a : Point.t) (b : Point.t) ~demand =
    let half = demand /. 2.0 in
    (* lower L: horizontal at a.y then vertical at b.x *)
    add_h_segment t ~y:a.y ~x0:a.x ~x1:b.x ~demand:half;
    add_v_segment t ~x:b.x ~y0:a.y ~y1:b.y ~demand:half;
    (* upper L: vertical at a.x then horizontal at b.y *)
    add_v_segment t ~x:a.x ~y0:a.y ~y1:b.y ~demand:half;
    add_h_segment t ~y:b.y ~x0:a.x ~x1:b.x ~demand:half

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
end

module Route = struct
  open Estimator

  type result = {
    signal_wl : float;
    overflow_edges : int;
    max_utilization : float;
    n_routed_nets : int;
  }

  let net_pin_points pl nid =
    let dsg = Placement.design pl in
    List.filter_map
      (fun pid ->
        let p = Design.pin dsg pid in
        if (Design.cell dsg p.Types.p_cell).Types.c_dead then None
        else
          match Placement.location_opt pl p.Types.p_cell with
          | Some _ -> Some (Placement.pin_location pl pid)
          | None -> None)
      (Design.net dsg nid).Types.n_pins

  let median xs =
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    if n = 0 then 0.0
    else if n mod 2 = 1 then arr.(n / 2)
    else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

  let star_center pts =
    Point.make
      (median (List.map (fun (p : Point.t) -> p.x) pts))
      (median (List.map (fun (p : Point.t) -> p.y) pts))

  let net_star_wl pl nid =
    match net_pin_points pl nid with
    | [] | [ _ ] -> 0.0
    | pts ->
      let c = star_center pts in
      List.fold_left (fun acc p -> acc +. Point.manhattan c p) 0.0 pts

  let net_hpwl pl nid =
    match net_pin_points pl nid with
    | [] | [ _ ] -> 0.0
    | pts -> Rect.half_perimeter (Rect.of_points pts)

  let estimate ?(config = default_config) pl =
    let dsg = Placement.design pl in
    let fp = Placement.floorplan pl in
    let grid =
      Grid.create ~core:fp.Floorplan.core ~gcell:config.gcell ~cap_h:config.cap_h
        ~cap_v:config.cap_v
    in
    let signal_wl = ref 0.0 in
    let n_routed = ref 0 in
    for nid = 0 to Design.n_nets dsg - 1 do
      let n = Design.net dsg nid in
      if not n.Types.n_is_clock then begin
        match net_pin_points pl nid with
        | [] | [ _ ] -> ()
        | pts ->
          let c = star_center pts in
          List.iter
            (fun p ->
              signal_wl := !signal_wl +. Point.manhattan c p;
              Grid.route_l grid c p ~demand:1.0)
            pts;
          incr n_routed
      end
    done;
    {
      signal_wl = !signal_wl;
      overflow_edges = Grid.overflow_edges grid;
      max_utilization = Grid.max_utilization grid;
      n_routed_nets = !n_routed;
    }
end

module Cts = struct
  open Synth

  let node_at = function Sink s -> s.at | Buffer b -> b.at

  let node_cap cfg = function Sink s -> s.cap | Buffer _ -> cfg.buf_input_cap

  (* Median bisection of nodes along the wider axis until each group
     respects fanout and cap limits. *)
  let rec split_groups cfg nodes =
    let total_cap = List.fold_left (fun acc n -> acc +. node_cap cfg n) 0.0 nodes in
    if List.length nodes <= cfg.max_fanout && total_cap <= cfg.max_cap then
      [ nodes ]
    else begin
      match nodes with
      | [] | [ _ ] -> [ nodes ]
      | _ ->
        let pts = List.map node_at nodes in
        let xs = List.map (fun (p : Point.t) -> p.x) pts in
        let ys = List.map (fun (p : Point.t) -> p.y) pts in
        let spread vs =
          List.fold_left Float.max neg_infinity vs
          -. List.fold_left Float.min infinity vs
        in
        let use_x = spread xs >= spread ys in
        let key n =
          let p = node_at n in
          if use_x then (p.Point.x, p.Point.y) else (p.Point.y, p.Point.x)
        in
        let sorted = List.stable_sort (fun a b -> compare (key a) (key b)) nodes in
        let half = (List.length sorted + 1) / 2 in
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | n :: rest -> take (k - 1) (n :: acc) rest
        in
        let left, right = take half [] sorted in
        split_groups cfg left @ split_groups cfg right
    end

  let cluster_level cfg nodes =
    let groups = split_groups cfg nodes in
    List.map
      (fun members ->
        match members with
        | [ single ] -> single
        | _ ->
          let centroid = Point.centroid (List.map node_at members) in
          Buffer { at = centroid; children = members })
      groups

  let rec tree_stats cfg node =
    (* (buffers, wirelength, depth) *)
    match node with
    | Sink _ -> (0, 0.0, 0)
    | Buffer b ->
      List.fold_left
        (fun (nb, wl, dep) child ->
          let cb, cwl, cdep = tree_stats cfg child in
          ( nb + cb,
            wl +. cwl +. Point.manhattan b.at (node_at child),
            max dep (cdep + 1) ))
        (1, 0.0, 0) b.children

  let rec count_buffer_caps cfg node =
    match node with
    | Sink _ -> 0.0
    | Buffer b ->
      List.fold_left
        (fun acc c -> acc +. count_buffer_caps cfg c)
        cfg.buf_input_cap b.children

  let build_domain cfg pl clock_net sinks =
    let rec reduce nodes =
      match nodes with
      | [] -> None
      | [ single ] -> Some single
      | _ -> reduce (cluster_level cfg nodes)
    in
    match reduce sinks with
    | None -> None
    | Some root ->
      (* connect the top node to the clock root driver if placed *)
      let dsg = Placement.design pl in
      let root_wire =
        match Design.driver dsg clock_net with
        | Some pid ->
          let p = Design.pin dsg pid in
          (match Placement.location_opt pl p.Types.p_cell with
          | Some _ -> Point.manhattan (Placement.pin_location pl pid) (node_at root)
          | None -> 0.0)
        | None -> 0.0
      in
      let n_buffers, wl, depth = tree_stats cfg root in
      let wl = wl +. root_wire in
      let sink_cap =
        List.fold_left
          (fun acc n -> match n with Sink s -> acc +. s.cap | Buffer _ -> acc)
          0.0 sinks
      in
      let wire_capacitance = wl *. cfg.wire_cap in
      let buffer_cap = count_buffer_caps cfg root in
      Some
        {
          clock_net;
          root;
          n_sinks = List.length sinks;
          n_buffers;
          wirelength = wl;
          sink_cap;
          wire_capacitance;
          buffer_cap;
          depth;
        }

  let synthesize ?(config = default_config) pl =
    let dsg = Placement.design pl in
    (* group placed registers by clock net *)
    let by_net = Hashtbl.create 8 in
    List.iter
      (fun cid ->
        if Placement.is_placed pl cid then begin
          match Design.pin_of dsg cid Types.Pin_clock with
          | Some pid -> (
            let p = Design.pin dsg pid in
            match p.Types.p_net with
            | Some nid ->
              let a = Design.reg_attrs dsg cid in
              let sink =
                Sink
                  {
                    reg = cid;
                    at = Placement.pin_location pl pid;
                    cap = a.Types.lib_cell.Cell_lib.clock_pin_cap;
                  }
              in
              let cur = match Hashtbl.find_opt by_net nid with Some l -> l | None -> [] in
              Hashtbl.replace by_net nid (sink :: cur)
            | None -> ())
          | None -> ()
        end)
      (Design.registers dsg);
    let domains =
      Hashtbl.fold
        (fun nid sinks acc ->
          match build_domain config pl nid sinks with
          | Some d -> d :: acc
          | None -> acc)
        by_net []
    in
    let domains = List.sort (fun a b -> compare a.clock_net b.clock_net) domains in
    let sum f = List.fold_left (fun acc d -> acc +. f d) 0.0 domains in
    let sumi f = List.fold_left (fun acc d -> acc + f d) 0 domains in
    {
      domains;
      n_sinks = sumi (fun d -> d.n_sinks);
      n_buffers = sumi (fun d -> d.n_buffers);
      wirelength = sum (fun d -> d.wirelength);
      total_cap = sum (fun d -> d.sink_cap +. d.wire_capacitance +. d.buffer_cap);
    }
end

(* The pre-change [Power.estimate] with [?cts] required, its
   signal-cap loop verbatim. *)
let power ~config:cfg ~cts pl =
  let dsg = Placement.design pl in
  let dynamic_uw cfg ~cap ~activity =
    1000.0 *. cap *. cfg.Power.vdd *. cfg.Power.vdd *. activity
    /. cfg.Power.clock_period
  in
  let clock_power = dynamic_uw cfg ~cap:cts.Synth.total_cap ~activity:1.0 in
  let signal_cap = ref 0.0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    let n = Design.net dsg nid in
    if (not n.Types.n_is_clock) && Design.driver dsg nid <> None then begin
      let pin_caps =
        List.fold_left
          (fun acc pid -> acc +. Design.pin_cap dsg pid)
          0.0 (Design.sinks dsg nid)
      in
      signal_cap := !signal_cap +. pin_caps +. (cfg.Power.wire_cap *. Route.net_hpwl pl nid)
    end
  done;
  let signal_power =
    dynamic_uw cfg ~cap:!signal_cap ~activity:cfg.Power.data_activity
  in
  let leakage_power =
    List.fold_left
      (fun acc cid ->
        match (Design.cell dsg cid).Types.c_kind with
        | Types.Register a -> acc +. a.Types.lib_cell.Mbr_liberty.Cell.leakage
        | Types.Comb _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
          acc)
      0.0 (Design.live_cells dsg)
    /. 1000.0
  in
  let dynamic = clock_power +. signal_power in
  {
    Power.clock_power;
    signal_power;
    leakage_power;
    total = dynamic +. leakage_power;
    clock_fraction = (if dynamic > 0.0 then clock_power /. dynamic else 0.0);
  }

(* The pre-change [Metrics.collect], over the reference passes. *)
let collect ?route_config ?cts_config eng lib =
  let pl = Engine.placement eng in
  let dsg = Placement.design pl in
  Engine.refresh eng;
  let cts = Cts.synthesize ?config:cts_config pl in
  let route = Route.estimate ?config:route_config pl in
  let regs = Design.registers dsg in
  let comp_regs =
    List.length (List.filter (Compat.is_composable dsg lib) regs)
  in
  let buf_area =
    float_of_int cts.Synth.n_buffers
    *. (match cts_config with
       | Some c -> c.Synth.buf_area
       | None -> Synth.default_config.Synth.buf_area)
  in
  let power =
    power ~config:(Power.config_of_sta (Engine.config eng)) ~cts pl
  in
  {
    Metrics.cells = Design.n_cells dsg;
    area = Design.total_area dsg +. buf_area;
    clk_wl = cts.Synth.wirelength;
    other_wl = route.Route.signal_wl;
    total_regs = List.length regs;
    comp_regs;
    clk_bufs = cts.Synth.n_buffers;
    clk_cap = cts.Synth.total_cap;
    clk_power = power.Power.clock_power;
    clk_power_frac = power.Power.clock_fraction;
    tns = Engine.tns eng;
    wns = Engine.wns eng;
    failing = Engine.failing_endpoints eng;
    endpoints = Engine.n_endpoints eng;
    ovfl = route.Route.overflow_edges;
    utilization = Placement.utilization pl;
    corners = Engine.per_corner_wns_tns eng;
  }
