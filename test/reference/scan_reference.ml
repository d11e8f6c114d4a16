(* The scan-chain order as it stood before the array walk: sectioned
   registers first, then a list-based nearest-neighbour walk (a fold
   over the remaining registers and a [List.filter] per step), kept
   verbatim as the oracle the [scan] equivalence group compares
   [Scan_stitch.chain_order] against. Not used by the library. *)

module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement

(* Chain order within one partition: section runs first, then unordered
   registers nearest-neighbour from the previous chain endpoint. *)
let chain_order pl members =
  let dsg = Placement.design pl in
  let sectioned, free =
    List.partition
      (fun cid ->
        match (Design.reg_attrs dsg cid).Types.scan with
        | Some { Types.section = Some _; _ } -> true
        | Some { Types.section = None; _ } | None -> false)
      members
  in
  let sec_key cid =
    match (Design.reg_attrs dsg cid).Types.scan with
    | Some { Types.section = Some (sec, pos); _ } -> (sec, pos, cid)
    | Some { Types.section = None; _ } | None -> (max_int, 0, cid)
  in
  let sectioned = List.sort (fun a b -> compare (sec_key a) (sec_key b)) sectioned in
  let pos_of cid =
    match Placement.location_opt pl cid with
    | Some _ -> Some (Placement.center pl cid)
    | None -> None
  in
  (* greedy nearest-neighbour walk over the free registers *)
  let placed_free, unplaced_free = List.partition (fun c -> pos_of c <> None) free in
  let start =
    match List.rev sectioned with
    | last :: _ -> pos_of last
    | [] -> None
  in
  let rec walk at remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let dist c =
        match (at, pos_of c) with
        | Some p, Some q -> Point.manhattan p q
        | _, _ -> 0.0
      in
      let next =
        List.fold_left
          (fun best c ->
            match best with
            | Some (b, bd) when bd <= dist c -> Some (b, bd)
            | Some _ | None -> Some (c, dist c))
          None remaining
      in
      (match next with
      | Some (c, _) ->
        walk (pos_of c) (List.filter (fun x -> x <> c) remaining) (c :: acc)
      | None -> List.rev acc)
  in
  let start =
    match (start, placed_free) with
    | None, c :: _ -> pos_of c
    | s, _ -> s
  in
  sectioned @ walk start placed_free [] @ unplaced_free
