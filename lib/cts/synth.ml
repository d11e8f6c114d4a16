module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell

type config = {
  max_fanout : int;
  max_cap : float;
  buf_input_cap : float;
  buf_area : float;
  wire_cap : float;
}

let default_config =
  {
    max_fanout = 16;
    max_cap = 48.0;
    buf_input_cap = 1.2;
    buf_area = 1.4;
    wire_cap = 0.2;
  }

type node =
  | Sink of { reg : Types.cell_id; at : Point.t; cap : float }
  | Buffer of { at : Point.t; children : node list }

type domain = {
  clock_net : Types.net_id;
  root : node;
  n_sinks : int;
  n_buffers : int;
  wirelength : float;
  sink_cap : float;
  wire_capacitance : float;
  buffer_cap : float;
  depth : int;
}

type result = {
  domains : domain list;
  n_sinks : int;
  n_buffers : int;
  wirelength : float;
  total_cap : float;
}

let node_at = function Sink s -> s.at | Buffer b -> b.at

let node_cap cfg = function Sink s -> s.cap | Buffer _ -> cfg.buf_input_cap

(* Bounding box of a node set; all-float, so [extend] never boxes. *)
type bounds = {
  mutable lo_x : float;
  mutable hi_x : float;
  mutable lo_y : float;
  mutable hi_y : float;
}

let extend b (p : Point.t) =
  b.lo_x <- Float.min b.lo_x p.x;
  b.hi_x <- Float.max b.hi_x p.x;
  b.lo_y <- Float.min b.lo_y p.y;
  b.hi_y <- Float.max b.hi_y p.y

(* Lexicographic (x, y) / (y, x) orders on node positions, each
   coordinate under [Float.compare]'s total order. [List.stable_sort]
   keeps ties in input order, so the split is deterministic. *)
let compare_xy a b =
  let p = node_at a and q = node_at b in
  let c = Float.compare p.Point.x q.Point.x in
  if c <> 0 then c else Float.compare p.Point.y q.Point.y

let compare_yx a b =
  let p = node_at a and q = node_at b in
  let c = Float.compare p.Point.y q.Point.y in
  if c <> 0 then c else Float.compare p.Point.x q.Point.x

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
      let b =
        { lo_x = infinity; hi_x = neg_infinity; lo_y = infinity; hi_y = neg_infinity }
      in
      List.iter (fun n -> extend b (node_at n)) nodes;
      let use_x = b.hi_x -. b.lo_x >= b.hi_y -. b.lo_y in
      let sorted =
        List.stable_sort (if use_x then compare_xy else compare_yx) nodes
      in
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
