module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell

type spec = {
  member_cids : Types.cell_id list;
  cell : Cell_lib.t;
  corner : Point.t;
}

let pin_net dsg cid kind =
  match Design.pin_of dsg cid kind with
  | Some pid -> (Design.pin dsg pid).Types.p_net
  | None -> None

(* Members ordered for bit assignment: ordered-scan position first,
   spatial order otherwise. *)
let order_members pl members =
  let dsg = Placement.design pl in
  let key cid =
    let a = Design.reg_attrs dsg cid in
    let scan_pos =
      match a.Types.scan with
      | Some { Types.section = Some (_, pos); _ } -> (0, pos)
      | Some { Types.section = None; _ } | None -> (1, 0)
    in
    let spatial =
      match Placement.location_opt pl cid with
      | Some p -> (p.Point.x, p.Point.y)
      | None -> (0.0, 0.0)
    in
    (scan_pos, spatial, cid)
  in
  List.sort (fun a b -> compare (key a) (key b)) members

let bit_assignment pl members =
  let dsg = Placement.design pl in
  let ordered = order_members pl members in
  let next = ref 0 in
  List.concat_map
    (fun cid ->
      let a = Design.reg_attrs dsg cid in
      List.init a.Types.lib_cell.Cell_lib.bits (fun b ->
          let bit = !next in
          incr next;
          (bit, pin_net dsg cid (Types.Pin_d b), pin_net dsg cid (Types.Pin_q b))))
    ordered

let merged_attrs dsg cell members =
  let attrs = List.map (Design.reg_attrs dsg) members in
  let enable =
    match attrs with
    | a :: _ -> a.Types.gate_enable
    | [] -> invalid_arg "Compose: no members"
  in
  let scan =
    match List.filter_map (fun a -> a.Types.scan) attrs with
    | [] -> None
    | scans ->
      let partition =
        match scans with s :: _ -> s.Types.partition | [] -> assert false
      in
      let sections = List.filter_map (fun s -> s.Types.section) scans in
      let section =
        match sections with
        | [] -> None
        | (sec, _) :: _ ->
          let min_pos =
            List.fold_left (fun acc (_, p) -> min acc p) max_int sections
          in
          Some (sec, min_pos)
      in
      Some { Types.partition; section }
  in
  Types.{ lib_cell = cell; fixed = false; size_only = false; scan; gate_enable = enable }

let common_net name nets =
  match List.sort_uniq compare nets with
  | [ n ] -> n
  | [] -> invalid_arg (Printf.sprintf "Compose: no %s net among members" name)
  | _ :: _ :: _ ->
    invalid_arg (Printf.sprintf "Compose: members disagree on %s net" name)

let execute pl spec =
  let dsg = Placement.design pl in
  let members = spec.member_cids in
  let total_bits =
    List.fold_left
      (fun acc cid ->
        acc + (Design.reg_attrs dsg cid).Types.lib_cell.Cell_lib.bits)
      0 members
  in
  if total_bits > spec.cell.Cell_lib.bits then
    invalid_arg "Compose.execute: members exceed the target cell width";
  let assignment = bit_assignment pl members in
  let clock =
    common_net "clock"
      (List.filter_map (fun cid -> pin_net dsg cid Types.Pin_clock) members)
  in
  let resets = List.filter_map (fun cid -> pin_net dsg cid Types.Pin_reset) members in
  let reset =
    match resets with [] -> None | _ -> Some (common_net "reset" resets)
  in
  let scan_enables =
    List.filter_map (fun cid -> pin_net dsg cid Types.Pin_scan_enable) members
  in
  let scan_enable =
    match scan_enables with
    | [] -> None
    | _ -> Some (common_net "scan-enable" scan_enables)
  in
  let attrs = merged_attrs dsg spec.cell members in
  (* remove the old registers before wiring the new cell *)
  List.iter
    (fun cid ->
      Design.remove_cell dsg cid;
      Placement.remove pl cid)
    members;
  let bits = spec.cell.Cell_lib.bits in
  let d = Array.make bits None in
  let q = Array.make bits None in
  List.iter
    (fun (bit, dn, qn) ->
      d.(bit) <- dn;
      q.(bit) <- qn)
    assignment;
  let conn =
    {
      Design.d_nets = d;
      q_nets = q;
      clock;
      reset;
      scan_enable;
      scan_ins = [];
      scan_outs = [];
    }
  in
  let name = Printf.sprintf "mbr_%d" (Design.next_cell_id dsg) in
  let id = Design.add_register dsg name attrs conn in
  Placement.set pl id spec.corner;
  id
