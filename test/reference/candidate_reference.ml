(* The candidate enumeration as it stood before the per-block blocker
   view: [Candidate.iter] with list member sets, a fresh test polygon
   and a fresh [Spatial.query_rect] per blocker count, the list
   [Weight] functions and the list convex hull, kept verbatim as the
   oracle the [candidate] equivalence group compares the library's
   stream against. Not used by the library. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell
module Compat = Mbr_core.Compat
module Mapping = Mbr_core.Mapping
module Spatial = Mbr_core.Spatial
module Candidate = Mbr_core.Candidate

open Candidate

module Hull = struct
  let dedup_sorted pts =
    let rec go acc = function
      | [] -> List.rev acc
      | [ p ] -> List.rev (p :: acc)
      | p :: (q :: _ as rest) ->
        if Point.equal ~eps:0.0 p q then go acc rest else go (p :: acc) rest
    in
    go [] pts

  (* Andrew's monotone chain. Returns CCW vertices, first vertex not
     repeated. Strictly convex output: collinear boundary points dropped. *)
  let convex pts =
    let pts = dedup_sorted (List.sort Point.compare_lex pts) in
    match pts with
    | [] | [ _ ] | [ _; _ ] -> pts
    | _ ->
      let build input =
        List.fold_left
          (fun chain p ->
            let rec pop = function
              | b :: a :: rest when Point.cross ~o:a b p <= 0.0 -> pop (a :: rest)
              | chain -> chain
            in
            p :: pop chain)
          [] input
      in
      let lower = build pts in
      let upper = build (List.rev pts) in
      (* Each chain ends with its endpoint duplicated in the other chain. *)
      let drop_last l = List.rev (List.tl (List.rev l)) in
      let hull = drop_last (List.rev lower) @ drop_last (List.rev upper) in
      (match hull with
      | [] | [ _ ] -> dedup_sorted (List.sort Point.compare_lex hull)
      | _ -> hull)

  let seg_distance (a : Point.t) (b : Point.t) (p : Point.t) =
    let abx = b.x -. a.x and aby = b.y -. a.y in
    let len2 = (abx *. abx) +. (aby *. aby) in
    if len2 <= 0.0 then Point.euclid a p
    else begin
      let t = (((p.x -. a.x) *. abx) +. ((p.y -. a.y) *. aby)) /. len2 in
      let t = Float.max 0.0 (Float.min 1.0 t) in
      Point.euclid (Point.make (a.x +. (t *. abx)) (a.y +. (t *. aby))) p
    end

  let contains hull p =
    match hull with
    | [] -> false
    | [ a ] -> Point.euclid a p <= 1e-9
    | [ a; b ] -> seg_distance a b p <= 1e-9
    | _ ->
      let n = List.length hull in
      let arr = Array.of_list hull in
      let ok = ref true in
      for i = 0 to n - 1 do
        let a = arr.(i) and b = arr.((i + 1) mod n) in
        if Point.cross ~o:a b p < -1e-9 then ok := false
      done;
      !ok

  let area hull =
    match hull with
    | [] | [ _ ] | [ _; _ ] -> 0.0
    | _ ->
      let arr = Array.of_list hull in
      let n = Array.length arr in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        let a : Point.t = arr.(i) and b : Point.t = arr.((i + 1) mod n) in
        acc := !acc +. ((a.x *. b.y) -. (b.x *. a.y))
      done;
      Float.abs !acc /. 2.0

  let of_rects rects = convex (List.concat_map Rect.corners rects)
end

module Weight = struct
  let formula = Mbr_core.Weight.formula

  let test_polygon rects = Hull.of_rects rects

  let count_blockers ~polygon ~constituents ~index =
    match polygon with
    | [] -> 0
    | _ ->
      let bbox = Rect.of_points polygon in
      let inside = Spatial.query_rect index bbox in
      List.length
        (List.filter
           (fun (cid, p) ->
             (not (List.mem cid constituents)) && Hull.contains polygon p)
           inside)
end

let target_cell cfg lib infos members bits =
  let func_class =
    match members with
    | m :: _ -> (infos.(m) : Compat.reg_info).Compat.func_class
    | [] -> invalid_arg "Candidate: empty member list"
  in
  let max_drive_res = Mapping.min_drive_res infos members in
  let need = Mapping.scan_need infos members in
  let best bits' = Mapping.best_for lib ~func_class ~bits:bits' ~max_drive_res ~need in
  if List.mem bits (Library.widths lib ~func_class) then
    match best bits with
    | Some c -> Some (bits, false, c)
    | None -> None
  else if cfg.allow_incomplete then begin
    match Library.smallest_width_geq lib ~func_class bits with
    | Some w -> (
      match best w with Some c -> Some (w, true, c) | None -> None)
    | None -> None
  end
  else None

let iter cfg (graph : Compat.graph) ~block ~lib ~blocker_index yield =
  let infos = graph.Compat.infos in
  let g = graph.Compat.adj in
  let block = List.sort compare block in
  let max_width =
    match block with
    | [] -> 0
    | m :: _ -> Library.max_width lib ~func_class:infos.(m).Compat.func_class
  in
  let count = ref 0 in
  let member_area members =
    List.fold_left
      (fun acc i ->
        let info = infos.(i) in
        acc +. Rect.area info.Compat.footprint)
      0.0 members
  in
  let emit members bits region =
    match members with
    | [] -> ()
    | [ single ] ->
      let info = infos.(single) in
      yield
        {
          members = [ single ];
          member_cids = [ info.Compat.cid ];
          bits = info.Compat.bits;
          target_bits = info.Compat.bits;
          incomplete = false;
          weight = 1.0;
          region = info.Compat.feasible;
          func_class = info.Compat.func_class;
        }
    | _ :: _ :: _ -> (
      match target_cell cfg lib infos members bits with
      | None -> ()
      | Some (target_bits, incomplete, cell) ->
        (* §5's operative form of the §3 area rule: the incomplete cell
           may cost at most [overhead] more area than what it replaces
           (which also implies a lower area/bit than the members'
           average whenever target_bits > bits). *)
        let area_ok =
          (not incomplete)
          || cell.Cell_lib.area
             <= (1.0 +. cfg.incomplete_area_overhead) *. member_area members
        in
        if area_ok then begin
          let weight =
            if cfg.use_weights then begin
              let rects = List.map (fun i -> infos.(i).Compat.footprint) members in
              let polygon = Weight.test_polygon rects in
              let constituents = List.map (fun i -> infos.(i).Compat.cid) members in
              let blockers =
                Weight.count_blockers ~polygon ~constituents ~index:blocker_index
              in
              Weight.formula ~bits ~blockers
            end
            else 1.0 /. float_of_int bits
          in
          if Float.is_finite weight then
            yield
              {
                members = List.sort compare members;
                member_cids =
                  List.map (fun i -> infos.(i).Compat.cid) (List.sort compare members);
                bits;
                target_bits;
                incomplete;
                weight;
                region;
                func_class = infos.(List.hd members).Compat.func_class;
              }
        end)
  in
  let block_arr = Array.of_list block in
  let in_block = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace in_block v ()) block_arr;
  let seen = Hashtbl.create 256 in
  let emit_once members bits region =
    let key = List.sort compare members in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      emit members bits region
    end
  in
  let block_neighbors v =
    List.rev
      (Csr.fold_neighbors g v
         (fun acc w -> if Hashtbl.mem in_block w then w :: acc else acc)
         [])
  in
  (* Exhaustive ordered DFS: every clique of the block visited once.
     Affordable only on small blocks. *)
  let rec dfs members bits region centroid ext =
    if !count < cfg.max_per_block then begin
      incr count;
      emit_once members bits region;
      let ordered =
        List.sort
          (fun a b ->
            compare
              (Point.manhattan centroid infos.(a).Compat.center)
              (Point.manhattan centroid infos.(b).Compat.center))
          ext
      in
      List.iter
        (fun v ->
          if !count < cfg.max_per_block then begin
            let info = infos.(v) in
            let bits' = bits + info.Compat.bits in
            if bits' <= max_width then begin
              match Rect.inter region info.Compat.feasible with
              | None -> ()
              | Some region' ->
                let ext' =
                  List.filter (fun w -> w > v && Csr.has_edge g v w) ext
                in
                let k = float_of_int (List.length members) in
                let centroid' =
                  Point.scale
                    (1.0 /. (k +. 1.0))
                    (Point.add (Point.scale k centroid) info.Compat.center)
                in
                dfs (members @ [ v ]) bits' region' centroid' ext'
            end
          end)
        ordered
    end
  in
  (* Structured enumeration for dense blocks: a full sub-clique walk of
     a 30-node near-clique is astronomically large, so we emit the
     candidates that actually win the ILP — spatially tight groups with
     few hull blockers:

     - a blocker-aware nearest-first chain from every seed (each
       extension step prefers candidates that keep the test polygon
       clean, then proximity), all prefixes emitted;
     - greedy disjoint tilings of the block from several starting
       corners (so the ILP can cover a whole bank with clean tiles the
       way the Fig. 6 heuristic does);
     - every compatible pair, and every pair extended by its nearest
       common neighbour. *)
  let blockers_of members =
    let rects = List.map (fun i -> infos.(i).Compat.footprint) members in
    let polygon = Weight.test_polygon rects in
    let constituents = List.map (fun i -> infos.(i).Compat.cid) members in
    Weight.count_blockers ~polygon ~constituents ~index:blocker_index
  in
  let grow_chain ?(allowed = fun _ -> true) seed =
    let rec grow members bits region centroid =
      emit_once members bits region;
      if bits < max_width then begin
        let common =
          List.filter
            (fun w ->
              (not (List.mem w members))
              && allowed w
              && List.for_all (fun m -> Csr.has_edge g m w) members
              && infos.(w).Compat.bits + bits <= max_width)
            (block_neighbors seed)
        in
        let best =
          List.fold_left
            (fun acc w ->
              match Rect.inter region infos.(w).Compat.feasible with
              | None -> acc
              | Some r ->
                let score =
                  ( (if cfg.use_weights then blockers_of (w :: members) else 0),
                    Point.manhattan centroid infos.(w).Compat.center )
                in
                (match acc with
                | Some (_, bs) when bs <= score -> acc
                | Some _ | None -> Some ((w, r), score)))
            None common
        in
        match best with
        | Some ((w, region'), _) ->
          let k = float_of_int (List.length members) in
          let centroid' =
            Point.scale
              (1.0 /. (k +. 1.0))
              (Point.add (Point.scale k centroid) infos.(w).Compat.center)
          in
          let members' = members @ [ w ] in
          grow members' (bits + infos.(w).Compat.bits) region' centroid'
        | None -> members
      end
      else members
    in
    let info = infos.(seed) in
    grow [ seed ] info.Compat.bits info.Compat.feasible info.Compat.center
  in
  let tiling order =
    let covered = Hashtbl.create 32 in
    List.iter
      (fun seed ->
        if not (Hashtbl.mem covered seed) then begin
          let chain =
            grow_chain ~allowed:(fun w -> not (Hashtbl.mem covered w)) seed
          in
          List.iter (fun v -> Hashtbl.replace covered v ()) chain
        end)
      order
  in
  let structured () =
    List.iter
      (fun v ->
        let info = infos.(v) in
        emit_once [ v ] info.Compat.bits info.Compat.feasible;
        ignore (grow_chain v))
      block;
    (* disjoint tilings from four sweep orders *)
    let key f = List.sort (fun a b -> compare (f a) (f b)) block in
    let c i = infos.(i).Compat.center in
    tiling (key (fun i -> ((c i).Point.y, (c i).Point.x)));
    tiling (key (fun i -> (-.(c i).Point.y, -.(c i).Point.x)));
    tiling (key (fun i -> ((c i).Point.x, (c i).Point.y)));
    tiling (key (fun i -> (-.(c i).Point.x, -.(c i).Point.y)));
    (* pairs and nearest-extended triples *)
    List.iter
      (fun v ->
        let iv = infos.(v) in
        List.iter
          (fun w ->
            if w > v then begin
              let iw = infos.(w) in
              let bits = iv.Compat.bits + iw.Compat.bits in
              if bits <= max_width then begin
                match Rect.inter iv.Compat.feasible iw.Compat.feasible with
                | None -> ()
                | Some region ->
                  emit_once [ v; w ] bits region;
                  let mid = Point.midpoint iv.Compat.center iw.Compat.center in
                  let common =
                    List.filter
                      (fun u ->
                        u <> v && u <> w && Csr.has_edge g u v
                        && Csr.has_edge g u w
                        && infos.(u).Compat.bits + bits <= max_width)
                      (block_neighbors v)
                  in
                  let nearest =
                    List.fold_left
                      (fun acc u ->
                        let d = Point.manhattan mid infos.(u).Compat.center in
                        match acc with
                        | Some (_, bd) when bd <= d -> acc
                        | Some _ | None -> (
                          match Rect.inter region infos.(u).Compat.feasible with
                          | Some r -> Some ((u, r), d)
                          | None -> acc))
                      None common
                  in
                  (match nearest with
                  | Some ((u, r), _) ->
                    emit_once [ v; w; u ] (bits + infos.(u).Compat.bits) r
                  | None -> ())
              end
            end)
          (block_neighbors v))
      block
  in
  let dfs_threshold = 13 in
  if List.length block <= dfs_threshold then
    List.iter
      (fun v ->
        let info = infos.(v) in
        let ext =
          List.filter (fun w -> w > v) (block_neighbors v)
        in
        dfs [ v ] info.Compat.bits info.Compat.feasible info.Compat.center ext)
      block
  else structured ()
