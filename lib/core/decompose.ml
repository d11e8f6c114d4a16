module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Legalizer = Mbr_place.Legalizer
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell

type report = { n_split : int; new_ids : Types.cell_id list }

(* Registry counters: how many registers each decompose entry point was
   asked to consider, and how many actually split. The recovery loop's
   convergence shows up as [decompose.splits] growing round over round
   while the victim set shrinks. *)
let m_requested = Mbr_obs.Metrics.counter "decompose.requested"

let m_splits = Mbr_obs.Metrics.counter "decompose.splits"

let pin_net dsg cid kind =
  match Design.pin_of dsg cid kind with
  | Some pid -> (Design.pin dsg pid).Types.p_net
  | None -> None

(* Core eligibility: live, untouchable flags clear, splittable in two,
   an exact half-width cell with the same scan style exists, and no
   ordered-scan section (whose order a split could break).
   [~max_width_only] additionally requires the register to sit at its
   class's maximum width — the original §5 policy; the recovery loop
   splits any violating MBR regardless of width. *)
let eligible_gen ~max_width_only dsg lib cid =
  let a = Design.reg_attrs dsg cid in
  let cell = a.Types.lib_cell in
  let bits = cell.Cell_lib.bits in
  (not a.Types.fixed) && (not a.Types.size_only)
  && ((not max_width_only)
     || bits = Library.max_width lib ~func_class:cell.Cell_lib.func_class)
  && bits >= 2
  && bits mod 2 = 0
  && (match a.Types.scan with
     | Some { Types.section = Some _; _ } -> false
     | Some { Types.section = None; _ } | None -> true)
  && List.exists
       (fun (c : Cell_lib.t) -> c.Cell_lib.scan = cell.Cell_lib.scan)
       (Library.cells_of lib ~func_class:cell.Cell_lib.func_class ~bits:(bits / 2))

let eligible dsg lib cid = eligible_gen ~max_width_only:true dsg lib cid

let half_cell lib (cell : Cell_lib.t) =
  let halves =
    List.filter
      (fun (c : Cell_lib.t) -> c.Cell_lib.scan = cell.Cell_lib.scan)
      (Library.cells_of lib ~func_class:cell.Cell_lib.func_class
         ~bits:(cell.Cell_lib.bits / 2))
  in
  (* keep the drive profile: smallest resistance not above the original *)
  let fitting =
    List.filter (fun (c : Cell_lib.t) -> c.Cell_lib.drive_res <= cell.Cell_lib.drive_res +. 1e-9) halves
  in
  let pick_by better = function
    | [] -> None
    | c0 :: rest ->
      Some
        (List.fold_left
           (fun (best : Cell_lib.t) (c : Cell_lib.t) ->
             if better c best then c else best)
           c0 rest)
  in
  (* closest to the original profile = the weakest fitting drive *)
  let weakest (c : Cell_lib.t) (b : Cell_lib.t) =
    c.Cell_lib.drive_res > b.Cell_lib.drive_res
    || (c.Cell_lib.drive_res = b.Cell_lib.drive_res && c.Cell_lib.area < b.Cell_lib.area)
  in
  let strongest (c : Cell_lib.t) (b : Cell_lib.t) =
    c.Cell_lib.drive_res < b.Cell_lib.drive_res
  in
  (match pick_by weakest fitting with
  | Some c -> Some c
  | None -> pick_by strongest halves)

let split_one ?(pin = false) pl occ lib cid =
  let dsg = Placement.design pl in
  let a = Design.reg_attrs dsg cid in
  let cell = a.Types.lib_cell in
  match half_cell lib cell with
  | None -> None
  | Some half ->
    let bits = cell.Cell_lib.bits in
    let hb = bits / 2 in
    let d = Array.init bits (fun b -> pin_net dsg cid (Types.Pin_d b)) in
    let q = Array.init bits (fun b -> pin_net dsg cid (Types.Pin_q b)) in
    let clock =
      match pin_net dsg cid Types.Pin_clock with
      | Some nid -> nid
      | None -> invalid_arg "Decompose: register without clock"
    in
    let reset = pin_net dsg cid Types.Pin_reset in
    let scan_enable = pin_net dsg cid Types.Pin_scan_enable in
    let corner = Placement.location pl cid in
    Legalizer.Occupancy.remove occ (Placement.footprint pl cid);
    Design.remove_cell dsg cid;
    Placement.remove pl cid;
    (* In pin mode the halves are frozen against re-composition
       ([size_only]): the recovery loop splits a timing-violating MBR,
       and letting a later round merge the halves straight back would
       oscillate. Sizing may still retune their drive. *)
    let attrs =
      { a with Types.lib_cell = half; size_only = pin || a.Types.size_only }
    in
    (* Centroid of the other pins on the half's D/Q nets — the point
       that minimizes first-order added wirelength. Computed after the
       original register left the placement, so its old location does
       not drag the box. *)
    let net_center lo =
      let pts = ref [] in
      let collect = function
        | Some nid ->
          List.iter
            (fun (_, _, pt) -> pts := pt :: !pts)
            (Placement.net_pin_points pl nid)
        | None -> ()
      in
      for b = lo to lo + hb - 1 do
        collect d.(b);
        collect q.(b)
      done;
      match !pts with
      | [] -> None
      | pts -> Some (Mbr_geom.Rect.center (Mbr_geom.Rect.of_points pts))
    in
    let make lo =
      let conn =
        {
          Design.d_nets = Array.sub d lo hb;
          q_nets = Array.sub q lo hb;
          clock;
          reset;
          scan_enable;
          scan_ins = [];
          scan_outs = [];
        }
      in
      let name = Printf.sprintf "split_%d" (Design.next_cell_id dsg) in
      let fallback =
        if lo = 0 then corner
        else Point.add corner (Point.make half.Cell_lib.width 0.0)
      in
      let desired =
        if pin then
          match net_center lo with Some p -> p | None -> fallback
        else fallback
      in
      let id = Design.add_register dsg name attrs conn in
      let spot =
        match Legalizer.Occupancy.find_nearest occ ~w:half.Cell_lib.width desired with
        | Some p -> p
        | None -> desired
      in
      Placement.set pl id spot;
      Legalizer.Occupancy.add occ (Placement.footprint pl id);
      id
    in
    let low = make 0 in
    let high = make hb in
    Some (low, high)

let split_targets ?pin pl lib targets =
  let occ = Legalizer.Occupancy.of_placement pl in
  let new_ids = ref [] in
  let n_split = ref 0 in
  List.iter
    (fun cid ->
      match split_one ?pin pl occ lib cid with
      | Some (a, b) ->
        incr n_split;
        new_ids := b :: a :: !new_ids
      | None -> ())
    targets;
  Mbr_obs.Metrics.incr ~by:!n_split m_splits;
  { n_split = !n_split; new_ids = List.rev !new_ids }

let split_max_width pl lib =
  let dsg = Placement.design pl in
  let targets =
    List.filter
      (fun cid -> Placement.is_placed pl cid && eligible dsg lib cid)
      (Design.registers dsg)
  in
  Mbr_obs.Metrics.incr ~by:(List.length targets) m_requested;
  split_targets pl lib targets

let splittable pl lib cid =
  Placement.is_placed pl cid
  && eligible_gen ~max_width_only:false (Placement.design pl) lib cid

let split_cells ?(pin = false) pl lib cids =
  let dsg = Placement.design pl in
  Mbr_obs.Metrics.incr ~by:(List.length cids) m_requested;
  let targets =
    List.filter
      (fun cid ->
        Placement.is_placed pl cid
        && eligible_gen ~max_width_only:false dsg lib cid)
      cids
  in
  split_targets ~pin pl lib targets
