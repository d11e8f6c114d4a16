module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Cell_lib = Mbr_liberty.Cell

(* Placed pins of one net: the points every geometric net query needs,
   plus their bounding box. Rebuilt lazily after an invalidation. *)
type net_cache = {
  nc_pts : (Types.pin_id * Types.cell_id * Point.t) list;
  nc_box : Rect.t option;
}

type t = {
  fp : Floorplan.t;
  dsg : Design.t;
  mutable loc : Point.t option array;
      (* dense cell_id -> location; grown on demand. An array beats a
         hash table here because [location] sits under every wire-delay
         and net-box computation — the hottest lookups in the repo. *)
  mutable rev : int;  (* count of set calls and unplacing removes *)
  nets : (Types.net_id, net_cache) Hashtbl.t;
  mutable dsg_cursor : int;  (* design edits already applied to [nets] *)
  mutable stamps : int array;
      (* per net id: how often the net's cached points were dropped;
         grown on demand, since [Design.add_net] logs nothing *)
}

let create fp dsg =
  {
    fp;
    dsg;
    loc = Array.make (max 1024 (Design.n_cells dsg)) None;
    rev = 0;
    nets = Hashtbl.create 256;
    dsg_cursor = Design.revision dsg;
    stamps = Array.make (max 256 (Design.n_nets dsg)) 0;
  }

let floorplan t = t.fp

let design t = t.dsg

let revision t = t.rev

(* Drop a net's cached points and move its stamp: the one place either
   happens. *)
let drop_net t nid =
  Hashtbl.remove t.nets nid;
  if nid >= Array.length t.stamps then begin
    let b = Array.make (max (2 * Array.length t.stamps) (nid + 1)) 0 in
    Array.blit t.stamps 0 b 0 (Array.length t.stamps);
    t.stamps <- b
  end;
  t.stamps.(nid) <- t.stamps.(nid) + 1

(* Drop cached boxes of every net the cell's pins touch. *)
let invalidate_cell_nets t id =
  List.iter
    (fun pid ->
      match (Design.pin t.dsg pid).Types.p_net with
      | Some nid -> drop_net t nid
      | None -> ())
    (Design.pins_of t.dsg id)

(* Fold pending design edits into the cache before serving from it. *)
let sync_design t =
  let rev = Design.revision t.dsg in
  if rev <> t.dsg_cursor then begin
    List.iter
      (function
        | Design.Net_changed (nid, _) -> drop_net t nid
        | Design.Cell_retyped id ->
          (* pin offsets follow the library cell's pin map *)
          invalidate_cell_nets t id
        | Design.Cell_added _ | Design.Cell_removed _ ->
          (* connectivity deltas arrive as Net_changed alongside *)
          ())
      (Design.edits_since t.dsg t.dsg_cursor);
    t.dsg_cursor <- rev
  end

let set t id p =
  if id >= Array.length t.loc then begin
    let b = Array.make (max (2 * Array.length t.loc) (id + 1)) None in
    Array.blit t.loc 0 b 0 (Array.length t.loc);
    t.loc <- b
  end;
  t.loc.(id) <- Some p;
  invalidate_cell_nets t id;
  t.rev <- t.rev + 1

let remove t id =
  if id < Array.length t.loc && t.loc.(id) <> None then begin
    t.loc.(id) <- None;
    invalidate_cell_nets t id;
    t.rev <- t.rev + 1
  end

let location t id =
  match if id < Array.length t.loc then t.loc.(id) else None with
  | Some p -> p
  | None -> raise Not_found

let location_opt t id = if id < Array.length t.loc then t.loc.(id) else None

let is_placed t id = id < Array.length t.loc && t.loc.(id) <> None

let footprint t id =
  let p = location t id in
  let w, h = Design.cell_size t.dsg id in
  Rect.make ~lx:p.Point.x ~ly:p.Point.y ~hx:(p.Point.x +. w) ~hy:(p.Point.y +. h)

let center t id = Rect.center (footprint t id)

let pin_location t pid =
  let p = Design.pin t.dsg pid in
  let cid = p.Types.p_cell in
  let corner = location t cid in
  let c = Design.cell t.dsg cid in
  match c.Types.c_kind with
  | Types.Register a ->
    let lib = a.Types.lib_cell in
    let off =
      match p.Types.p_kind with
      | Types.Pin_d i -> Cell_lib.d_pin_offset lib i
      | Types.Pin_q i -> Cell_lib.q_pin_offset lib i
      | Types.Pin_clock -> Cell_lib.clock_pin_offset lib
      | Types.Pin_reset | Types.Pin_scan_in _ | Types.Pin_scan_out _
      | Types.Pin_scan_enable | Types.Pin_in _ | Types.Pin_out | Types.Pin_port
        ->
        Point.make (lib.Cell_lib.width /. 2.0) (lib.Cell_lib.height /. 2.0)
    in
    Point.add corner off
  | Types.Comb _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
    let w, h = Design.cell_size t.dsg cid in
    Point.add corner (Point.make (w /. 2.0) (h /. 2.0))

let net_cache_of t nid =
  sync_design t;
  match Hashtbl.find_opt t.nets nid with
  | Some c -> c
  | None ->
    let pts =
      List.filter_map
        (fun pid ->
          let p = Design.pin t.dsg pid in
          let cid = p.Types.p_cell in
          if is_placed t cid then Some (pid, cid, pin_location t pid)
          else None)
        (Design.net t.dsg nid).Types.n_pins
    in
    let box =
      match pts with
      | [] -> None
      | _ -> Some (Rect.of_points (List.map (fun (_, _, p) -> p) pts))
    in
    let c = { nc_pts = pts; nc_box = box } in
    Hashtbl.replace t.nets nid c;
    c

let net_pin_points t nid = (net_cache_of t nid).nc_pts

let net_stamp t nid =
  sync_design t;
  if nid < Array.length t.stamps then t.stamps.(nid) else 0

let net_box t nid = (net_cache_of t nid).nc_box

let iter f t =
  Array.iteri
    (fun id loc ->
      match loc with
      | Some p when not (Design.cell t.dsg id).Types.c_dead -> f id p
      | Some _ | None -> ())
    t.loc

let placed_registers t =
  List.filter (fun id -> is_placed t id) (Design.registers t.dsg)

let utilization t =
  let area = ref 0.0 in
  iter (fun id _ -> area := !area +. Design.cell_area t.dsg id) t;
  !area /. Rect.area t.fp.Floorplan.core

let overlapping_registers t =
  let regs = placed_registers t in
  let boxed = List.map (fun id -> (id, footprint t id)) regs in
  (* Sweep by lx to avoid the full quadratic comparison. *)
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare a.Rect.lx b.Rect.lx) boxed
  in
  let rec sweep acc = function
    | [] -> acc
    | (id, r) :: rest ->
      let rec scan acc = function
        | [] -> acc
        | (id', r') :: more ->
          if r'.Rect.lx >= r.Rect.hx then acc
          else begin
            let acc =
              if Rect.overlaps_strictly r r' then (id, id') :: acc else acc
            in
            scan acc more
          end
      in
      sweep (scan acc rest) rest
  in
  List.rev (sweep [] sorted)

let copy t =
  {
    t with
    loc = Array.copy t.loc;
    nets = Hashtbl.copy t.nets;
    stamps = Array.copy t.stamps;
  }
