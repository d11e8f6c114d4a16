module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell
module Csr = Mbr_graph.Csr

type config = {
  delay_per_um : float;
  slack_margin : float;
  max_dist : float;
  slack_diff_limit : float;
  viol_tolerance : float;
}

let default_config =
  {
    delay_per_um = 0.45;
    slack_margin = 5.0;
    max_dist = 60.0;
    slack_diff_limit = 120.0;
    viol_tolerance = 15.0;
  }

type reg_info = {
  cid : Types.cell_id;
  bits : int;
  func_class : string;
  clock : Types.net_id;
  enable : string option;
  reset : Types.net_id option;
  scan : Types.scan_info option;
  drive_res : float;
  d_slack : float;
  q_slack : float;
  footprint : Rect.t;
  feasible : Rect.t;
  center : Point.t;
}

let is_composable dsg lib cid =
  let a = Design.reg_attrs dsg cid in
  (not a.Types.fixed) && (not a.Types.size_only)
  &&
  let cls = a.Types.lib_cell.Cell_lib.func_class in
  Library.max_width lib ~func_class:cls > a.Types.lib_cell.Cell_lib.bits

let reg_pin_net dsg cid kind =
  match Design.pin_of dsg cid kind with
  | Some pid -> (Design.pin dsg pid).Types.p_net
  | None -> None

(* Bounding box of the other pins on a pin's net; None when the pin is
   unconnected or alone on its net. *)
let net_box pl pid =
  let dsg = Placement.design pl in
  let p = Design.pin dsg pid in
  match p.Types.p_net with
  | None -> None
  | Some nid ->
    let pts =
      List.filter_map
        (fun (qid, _, pt) -> if qid = pid then None else Some pt)
        (Placement.net_pin_points pl nid)
    in
    (match pts with [] -> None | _ -> Some (Rect.of_points pts))

(* Per-pin feasible region (§2, placement compatibility): positive slack
   converts to a movement radius around the pin's net box; a violating
   pin restricts the cell to the net box itself (moving inside the box
   does not lengthen the net to first order). The cell's region is the
   intersection over its D/Q pins, capped at max_dist of the footprint
   so that displacement stays bounded. *)
let feasible_region cfg eng cid footprint =
  let pl = Engine.placement eng in
  (* worst-corner slack: the region must be feasible in every corner *)
  let dsg = Placement.design pl in
  let cap = Rect.expand footprint cfg.max_dist in
  let pin_region pid =
    let p = Design.pin dsg pid in
    let relevant =
      match p.Types.p_kind with
      | Types.Pin_d _ | Types.Pin_q _ -> p.Types.p_net <> None
      | Types.Pin_clock | Types.Pin_reset | Types.Pin_scan_in _
      | Types.Pin_scan_out _ | Types.Pin_scan_enable | Types.Pin_in _
      | Types.Pin_out | Types.Pin_port ->
        false
    in
    if not relevant then None
    else
      match (net_box pl pid, Engine.slack eng pid) with
      | None, _ | _, None -> None
      | Some box, Some s ->
        (* the violation tolerance admits small degradations everywhere:
           the flow applies useful skew and sizing right after
           composition, which recover them (Fig. 4) *)
        let budget = cfg.viol_tolerance +. Float.max 0.0 (s -. cfg.slack_margin) in
        let freedom = Float.min cfg.max_dist (budget /. cfg.delay_per_um) in
        Some (Rect.expand box freedom)
  in
  let regions = List.filter_map pin_region (Design.pins_of dsg cid) in
  match Rect.inter_all (cap :: regions) with
  | Some r -> (
    (* the cell's own footprint is always feasible (it stands there);
       fold it in, staying within the displacement cap *)
    match Rect.inter (Rect.union r footprint) cap with
    | Some r' -> r'
    | None -> footprint)
  | None -> footprint

let reg_info cfg eng cid =
  let pl = Engine.placement eng in
  let dsg = Placement.design pl in
  let a = Design.reg_attrs dsg cid in
  let lib_cell = a.Types.lib_cell in
  let footprint = Placement.footprint pl cid in
  let d_slack = Engine.reg_d_slack eng cid in
  let q_slack = Engine.reg_q_slack eng cid in
  let clock =
    match reg_pin_net dsg cid Types.Pin_clock with
    | Some nid -> nid
    | None -> invalid_arg "Compat.reg_info: register without a clock net"
  in
  {
    cid;
    bits = lib_cell.Cell_lib.bits;
    func_class = lib_cell.Cell_lib.func_class;
    clock;
    enable = a.Types.gate_enable;
    reset = reg_pin_net dsg cid Types.Pin_reset;
    scan = a.Types.scan;
    drive_res = lib_cell.Cell_lib.drive_res;
    d_slack;
    q_slack;
    footprint;
    feasible = feasible_region cfg eng cid footprint;
    center = Rect.center footprint;
  }

let functionally_compatible a b =
  a.func_class = b.func_class && a.clock = b.clock && a.enable = b.enable
  && a.reset = b.reset

let scan_compatible a b =
  match (a.scan, b.scan) with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some sa, Some sb ->
    sa.Types.partition = sb.Types.partition
    && (match (sa.Types.section, sb.Types.section) with
       | None, None -> true
       | Some (seca, _), Some (secb, _) -> seca = secb
       | Some _, None | None, Some _ -> false)

let placement_compatible a b = Rect.intersects a.feasible b.feasible

(* A register with negative D slack wants its clock later (+skew); one
   with negative Q slack wants it earlier. Composing the two would pull
   the shared MBR clock in opposite directions. *)
let opposite_skew_pressure a b =
  let wants_later r = r.d_slack < 0.0 && r.q_slack >= 0.0 in
  let wants_earlier r = r.q_slack < 0.0 && r.d_slack >= 0.0 in
  (wants_later a && wants_earlier b) || (wants_earlier a && wants_later b)

let timing_compatible cfg a b =
  (not (opposite_skew_pressure a b))
  &&
  (* unconnected sides (infinite slack) impose no magnitude constraint *)
  let close x y =
    (not (Float.is_finite x)) || (not (Float.is_finite y))
    || Float.abs (x -. y) <= cfg.slack_diff_limit
  in
  close a.d_slack b.d_slack && close a.q_slack b.q_slack

let compatible cfg a b =
  functionally_compatible a b && scan_compatible a b
  && placement_compatible a b && timing_compatible cfg a b

type graph = { adj : Csr.t; infos : reg_info array }

(* Two feasible regions can only overlap when the footprint centers are
   within 2*max_dist + (w_a + w_b)/2 per axis (each region sits inside
   its footprint expanded by max_dist), so a grid of this pitch with a
   3x3 neighbourhood scan sees every potentially compatible pair. The
   footprint term matters: without it an MBR wider than the slack budget
   could pair with a neighbour across a bucket boundary and be missed. *)
let pair_bucket config infos =
  let max_fp =
    Array.fold_left
      (fun acc info ->
        Float.max acc
          (Float.max (Rect.width info.footprint) (Rect.height info.footprint)))
      0.0 infos
  in
  Float.max 1.0 ((2.0 *. config.max_dist) +. max_fp)

(* Grid coordinates packed into one int so bucket lookups hash an
   immediate instead of a boxed pair; the 2^30 offset keeps both
   halves non-negative (grid indices are far below 2^30 for any real
   die). *)
let grid_offset = 0x4000_0000

let pack_cell kx ky = ((kx + grid_offset) lsl 31) lor (ky + grid_offset)

(* Spatial hash of the info centers at the near-pair pitch: bucket key
   -> indices, newest first. *)
let near_hash bucket infos =
  let n = Array.length infos in
  let tbl : (int, int list) Hashtbl.t = Hashtbl.create (4 * max 1 n) in
  Array.iteri
    (fun i info ->
      let p = info.center in
      let k =
        pack_cell
          (int_of_float (Float.floor (p.Point.x /. bucket)))
          (int_of_float (Float.floor (p.Point.y /. bucket)))
      in
      let cur = match Hashtbl.find_opt tbl k with Some l -> l | None -> [] in
      Hashtbl.replace tbl k (i :: cur))
    infos;
  tbl

(* Calls [f i] for every index in the 3x3 neighbourhood of [p]
   (including the bucket of [p] itself). *)
let iter_near tbl bucket (p : Point.t) f =
  let kx = int_of_float (Float.floor (p.x /. bucket)) in
  let ky = int_of_float (Float.floor (p.y /. bucket)) in
  for dx = -1 to 1 do
    for dy = -1 to 1 do
      match Hashtbl.find_opt tbl (pack_cell (kx + dx) (ky + dy)) with
      | Some js -> List.iter f js
      | None -> ()
    done
  done

(* Calls [f i j] (with j > i) for every pair within the spatial-hash
   neighbourhood — the superset of pairs that can pass
   [placement_compatible]. *)
let iter_near_pairs config infos f =
  let bucket = pair_bucket config infos in
  let tbl = near_hash bucket infos in
  Array.iteri
    (fun i info -> iter_near tbl bucket info.center (fun j -> if j > i then f i j))
    infos

let composable_infos config eng lib =
  let pl = Engine.placement eng in
  let dsg = Placement.design pl in
  Engine.refresh eng;
  let composable =
    List.filter
      (fun cid -> is_composable dsg lib cid && Placement.is_placed pl cid)
      (Design.registers dsg)
  in
  Array.of_list (List.map (reg_info config eng) composable)

type refresh_stats = {
  nodes_total : int;
  nodes_dirty : int;
  pairs_checked : int;
  edges_copied : int;
}

(* Telemetry mirror of [refresh_stats]: the registry accumulates across
   rounds what each call also returns, so one metrics snapshot prices
   the clean-pair reuse for a whole ECO session. *)
let m_nodes_dirty = Mbr_obs.Metrics.counter "compat.nodes_dirty"

let m_pairs_checked = Mbr_obs.Metrics.counter "compat.pairs_checked"

let m_edges_copied = Mbr_obs.Metrics.counter "compat.edges_copied"

let empty = { adj = Csr.Builder.finish (Csr.Builder.create 0); infos = [||] }

let refresh ?(config = default_config) prev eng lib =
  let infos = composable_infos config eng lib in
  let n = Array.length infos in
  (* A node is clean when a register with a structurally equal snapshot
     existed in the previous graph. Pair checks are pure functions of
     (config, info, info), and the previous build's bucket covered every
     pair its infos could make compatible, so a clean-clean pair's
     verdict can be copied; every pair touching a dirty node is
     re-checked. *)
  let old_ix = Hashtbl.create (max 16 (Array.length prev.infos)) in
  Array.iteri (fun i (info : reg_info) -> Hashtbl.replace old_ix info.cid i)
    prev.infos;
  let clean = Array.make n (-1) in
  let dirty = ref 0 in
  Array.iteri
    (fun i info ->
      (match Hashtbl.find_opt old_ix info.cid with
      | Some oi when prev.infos.(oi) = info -> clean.(i) <- oi
      | Some _ | None -> ());
      if clean.(i) < 0 then incr dirty)
    infos;
  let b = Csr.Builder.create n in
  let checked = ref 0 and copied = ref 0 in
  iter_near_pairs config infos (fun i j ->
      if clean.(i) >= 0 && clean.(j) >= 0 then begin
        if Csr.has_edge prev.adj clean.(i) clean.(j) then begin
          incr copied;
          Csr.Builder.add_edge b i j
        end
      end
      else begin
        incr checked;
        if compatible config infos.(i) infos.(j) then Csr.Builder.add_edge b i j
      end);
  let stats =
    {
      nodes_total = n;
      nodes_dirty = !dirty;
      pairs_checked = !checked;
      edges_copied = !copied;
    }
  in
  Mbr_obs.Metrics.incr ~by:stats.nodes_dirty m_nodes_dirty;
  Mbr_obs.Metrics.incr ~by:stats.pairs_checked m_pairs_checked;
  Mbr_obs.Metrics.incr ~by:stats.edges_copied m_edges_copied;
  ({ adj = Csr.Builder.finish b; infos }, stats)

let build_graph ?config eng lib = fst (refresh ?config empty eng lib)
