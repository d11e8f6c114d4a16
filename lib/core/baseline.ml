module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Bk = Mbr_graph.Bron_kerbosch
module Library = Mbr_liberty.Library

(* Pack clique members nearest-first around the centroid until adding
   another would exceed the widest library cell or empty the common
   region, then shrink to the largest complete width. *)
let pack infos lib members =
  match members with
  | [] -> None
  | seed :: _ ->
    let func_class = (infos.(seed) : Compat.reg_info).Compat.func_class in
    let widths = Library.widths lib ~func_class in
    let max_width = Library.max_width lib ~func_class in
    let centroid =
      Point.centroid (List.map (fun i -> infos.(i).Compat.center) members)
    in
    let ordered =
      List.sort
        (fun a b ->
          compare
            (Point.manhattan centroid infos.(a).Compat.center)
            (Point.manhattan centroid infos.(b).Compat.center))
        members
    in
    let rec grow acc bits region = function
      | [] -> List.rev acc
      | v :: rest ->
        let b = infos.(v).Compat.bits in
        if bits + b > max_width then List.rev acc
        else begin
          match Rect.inter region infos.(v).Compat.feasible with
          | Some region' -> grow (v :: acc) (bits + b) region' rest
          | None -> grow acc bits region rest
        end
    in
    let packed = grow [] 0 (Rect.make ~lx:neg_infinity ~ly:neg_infinity ~hx:infinity ~hy:infinity) ordered in
    (* shrink from the back until the bit total matches a library width *)
    let rec shrink group =
      let bits = List.fold_left (fun acc i -> acc + infos.(i).Compat.bits) 0 group in
      if List.mem bits widths then group
      else
        match List.rev group with
        | [] | [ _ ] -> []
        | _ :: kept_rev -> shrink (List.rev kept_rev)
    in
    (match shrink packed with
    | [] | [ _ ] -> None
    | group -> Some group)

let solve_block graph ~block ~lib =
  let infos = graph.Compat.infos in
  let live = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.replace live v ()) block;
  let groups = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let nodes = Array.of_list (List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) live [])) in
    if Array.length nodes < 2 then continue_ := false
    else begin
      let sub = Csr.induced graph.Compat.adj nodes in
      let cliques = Bk.maximal_cliques sub in
      let bits_of c =
        List.fold_left (fun acc k -> acc + infos.(nodes.(k)).Compat.bits) 0 c
      in
      let best =
        List.fold_left
          (fun acc c ->
            match acc with
            | Some b when bits_of b >= bits_of c -> acc
            | Some _ | None -> Some c)
          None cliques
      in
      match best with
      | None -> continue_ := false
      | Some clique ->
        let members = List.map (fun k -> nodes.(k)) clique in
        (match pack infos lib members with
        | Some group ->
          groups := group :: !groups;
          List.iter (fun v -> Hashtbl.remove live v) group
        | None ->
          (* nothing mergeable in the biggest clique: retire its seed so
             the loop makes progress *)
          (match members with
          | v :: _ -> Hashtbl.remove live v
          | [] -> continue_ := false))
    end
  done;
  List.rev !groups
