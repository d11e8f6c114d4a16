module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell

type config = {
  allow_incomplete : bool;
  incomplete_area_overhead : float;
  max_per_block : int;
  use_weights : bool;
}

let default_config =
  {
    allow_incomplete = true;
    incomplete_area_overhead = 0.05;
    max_per_block = 6_000;
    use_weights = true;
  }

type t = {
  members : int list;
  member_cids : Mbr_netlist.Types.cell_id list;
  bits : int;
  target_bits : int;
  incomplete : bool;
  weight : float;
  region : Rect.t;
  func_class : string;
}

let is_singleton c = match c.members with [ _ ] -> true | [] | _ :: _ :: _ -> false

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

let max_block_size = Sys.int_size - 1

let m_weight_lookups = Mbr_obs.Metrics.counter "alloc.weight.lookups"

let m_weight_sets = Mbr_obs.Metrics.counter "alloc.weight.sets"

let blockers (graph : Compat.graph) ~block index =
  let infos = graph.Compat.infos in
  match block with
  | [] -> []
  | v :: rest ->
    Spatial.query_rect index
      (List.fold_left
         (fun acc w -> Rect.union acc infos.(w).Compat.footprint)
         infos.(v).Compat.footprint rest)

(* [f] on the set bits of [mask], lowest first *)
let iter_bits mask f =
  let m = ref mask and p = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then f !p;
    m := !m lsr 1;
    incr p
  done

(* Member sets are bit masks over block positions, and positions follow
   ascending node ids, so a mask's bits in order are the sorted members
   and "every node above v" is a shift. [path] holds the members of the
   set being grown in insertion order: the area sum, the centroid and
   the func class of a candidate are taken in that order. *)
let iter cfg (graph : Compat.graph) ~block ~lib ~blockers yield =
  let infos = graph.Compat.infos in
  let nodes = Array.of_list (List.sort_uniq compare block) in
  let n = Array.length nodes in
  if n > max_block_size then
    invalid_arg
      (Printf.sprintf "Candidate.iter: block of %d nodes (at most %d)" n
         max_block_size);
  let info p = infos.(nodes.(p)) in
  let bit p = 1 lsl p in
  let above p = -1 lsl (p + 1) in
  let max_width =
    if n = 0 then 0
    else Library.max_width lib ~func_class:(info 0).Compat.func_class
  in
  let adj =
    let pos = Hashtbl.create (max 16 (2 * n)) in
    Array.iteri (fun p v -> Hashtbl.replace pos v p) nodes;
    Array.map
      (fun v ->
        Csr.fold_neighbors graph.Compat.adj v
          (fun acc w ->
            match Hashtbl.find_opt pos w with
            | Some q -> acc lor bit q
            | None -> acc)
          0)
      nodes
  in
  let view =
    if cfg.use_weights then
      Some
        (Weight.view
           ~footprints:(Array.map (fun v -> infos.(v).Compat.footprint) nodes)
           ~cids:(Array.map (fun v -> infos.(v).Compat.cid) nodes)
           blockers)
    else None
  in
  let blockers_of mask =
    match view with Some v -> Weight.blockers v mask | None -> 0
  in
  let path = Array.make (max n 1) 0 in
  let count = ref 0 in
  let member_area members =
    List.fold_left
      (fun acc i ->
        let info = infos.(i) in
        acc +. Rect.area info.Compat.footprint)
      0.0 members
  in
  let emit len mask bits region =
    if len = 1 then begin
      let info = info path.(0) in
      yield
        {
          members = [ nodes.(path.(0)) ];
          member_cids = [ info.Compat.cid ];
          bits = info.Compat.bits;
          target_bits = info.Compat.bits;
          incomplete = false;
          weight = 1.0;
          region = info.Compat.feasible;
          func_class = info.Compat.func_class;
        }
    end
    else begin
      let members = List.init len (fun i -> nodes.(path.(i))) in
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
            if cfg.use_weights then Weight.formula ~bits ~blockers:(blockers_of mask)
            else 1.0 /. float_of_int bits
          in
          if Float.is_finite weight then begin
            let sorted = ref [] in
            for p = n - 1 downto 0 do
              if mask land bit p <> 0 then sorted := nodes.(p) :: !sorted
            done;
            yield
              {
                members = !sorted;
                member_cids = List.map (fun i -> infos.(i).Compat.cid) !sorted;
                bits;
                target_bits;
                incomplete;
                weight;
                region;
                func_class = (info path.(0)).Compat.func_class;
              }
          end
        end
    end
  in
  let seen = Hashtbl.create 256 in
  let emit_once len mask bits region =
    if not (Hashtbl.mem seen mask) then begin
      Hashtbl.replace seen mask ();
      emit len mask bits region
    end
  in
  (* Exhaustive ordered DFS: every clique of the block visited once.
     Affordable only on small blocks. Members join in ascending order;
     each level orders its extensions by distance from the running
     centroid (stable: ties keep ascending order) in its own buffers. *)
  let dfs_threshold = 13 in
  let levels = if n <= dfs_threshold then n else 0 in
  let ord = Array.init levels (fun _ -> Array.make n 0) in
  let dist = Array.init levels (fun _ -> Array.make n 0.0) in
  let rec dfs depth mask bits region centroid ext =
    if !count < cfg.max_per_block then begin
      incr count;
      emit_once (depth + 1) mask bits region;
      let ord = ord.(depth) and dist = dist.(depth) in
      let m = ref 0 in
      iter_bits ext (fun v ->
          let d = Point.manhattan centroid (info v).Compat.center in
          let i = ref !m in
          while !i > 0 && Float.compare dist.(!i - 1) d > 0 do
            ord.(!i) <- ord.(!i - 1);
            dist.(!i) <- dist.(!i - 1);
            decr i
          done;
          ord.(!i) <- v;
          dist.(!i) <- d;
          incr m);
      for i = 0 to !m - 1 do
        let v = ord.(i) in
        if !count < cfg.max_per_block then begin
          let info = info v in
          let bits' = bits + info.Compat.bits in
          if bits' <= max_width then begin
            match Rect.inter region info.Compat.feasible with
            | None -> ()
            | Some region' ->
              let k = float_of_int (depth + 1) in
              let centroid' =
                Point.scale
                  (1.0 /. (k +. 1.0))
                  (Point.add (Point.scale k centroid) info.Compat.center)
              in
              path.(depth + 1) <- v;
              dfs (depth + 1) (mask lor bit v) bits' region' centroid'
                (ext land adj.(v) land above v)
          end
        end
      done
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
       common neighbour.

     A chain's extensions are the common neighbours of its members
     ([common], which excludes the members themselves) that [allowed]
     admits. *)
  let grow_chain allowed seed =
    let rec grow len mask bits region centroid common =
      emit_once len mask bits region;
      if bits < max_width then begin
        let best = ref (-1) and best_region = ref region in
        let best_b = ref 0 and best_d = ref 0.0 in
        iter_bits (common land allowed) (fun w ->
            let iw = info w in
            if iw.Compat.bits + bits <= max_width then
              match Rect.inter region iw.Compat.feasible with
              | None -> ()
              | Some r ->
                let b = blockers_of (mask lor bit w) in
                let d = Point.manhattan centroid iw.Compat.center in
                if !best < 0 || b < !best_b || (b = !best_b && d < !best_d)
                then begin
                  best := w;
                  best_region := r;
                  best_b := b;
                  best_d := d
                end);
        if !best >= 0 then begin
          let w = !best in
          let iw = info w in
          let k = float_of_int len in
          let centroid' =
            Point.scale
              (1.0 /. (k +. 1.0))
              (Point.add (Point.scale k centroid) iw.Compat.center)
          in
          path.(len) <- w;
          grow (len + 1) (mask lor bit w) (bits + iw.Compat.bits) !best_region
            centroid' (common land adj.(w))
        end
        else mask
      end
      else mask
    in
    let info = info seed in
    path.(0) <- seed;
    grow 1 (bit seed) info.Compat.bits info.Compat.feasible info.Compat.center
      adj.(seed)
  in
  let tiling order =
    let covered = ref 0 in
    List.iter
      (fun seed ->
        if !covered land bit seed = 0 then
          covered := !covered lor grow_chain (lnot !covered) seed)
      order
  in
  let structured () =
    for v = 0 to n - 1 do
      let info = info v in
      path.(0) <- v;
      emit_once 1 (bit v) info.Compat.bits info.Compat.feasible;
      ignore (grow_chain (-1) v)
    done;
    (* disjoint tilings from four sweep orders *)
    let key f = List.sort (fun a b -> compare (f a) (f b)) (List.init n Fun.id) in
    let c p = (info p).Compat.center in
    tiling (key (fun i -> ((c i).Point.y, (c i).Point.x)));
    tiling (key (fun i -> (-.(c i).Point.y, -.(c i).Point.x)));
    tiling (key (fun i -> ((c i).Point.x, (c i).Point.y)));
    tiling (key (fun i -> (-.(c i).Point.x, -.(c i).Point.y)));
    (* pairs and nearest-extended triples *)
    for v = 0 to n - 1 do
      let iv = info v in
      iter_bits (adj.(v) land above v) (fun w ->
          let iw = info w in
          let bits = iv.Compat.bits + iw.Compat.bits in
          if bits <= max_width then begin
            match Rect.inter iv.Compat.feasible iw.Compat.feasible with
            | None -> ()
            | Some region ->
              path.(0) <- v;
              path.(1) <- w;
              emit_once 2 (bit v lor bit w) bits region;
              let mid = Point.midpoint iv.Compat.center iw.Compat.center in
              let nearest = ref (-1) and nearest_region = ref region in
              let nearest_d = ref 0.0 in
              iter_bits (adj.(v) land adj.(w)) (fun u ->
                  let iu = info u in
                  if iu.Compat.bits + bits <= max_width then begin
                    let d = Point.manhattan mid iu.Compat.center in
                    if !nearest < 0 || not (!nearest_d <= d) then
                      match Rect.inter region iu.Compat.feasible with
                      | Some r ->
                        nearest := u;
                        nearest_region := r;
                        nearest_d := d
                      | None -> ()
                  end);
              if !nearest >= 0 then begin
                let u = !nearest in
                path.(2) <- u;
                emit_once 3
                  (bit v lor bit w lor bit u)
                  (bits + (info u).Compat.bits)
                  !nearest_region
              end
          end)
    done
  in
  if n <= dfs_threshold then
    for v = 0 to n - 1 do
      let info = info v in
      path.(0) <- v;
      dfs 0 (bit v) info.Compat.bits info.Compat.feasible info.Compat.center
        (adj.(v) land above v)
    done
  else structured ();
  match view with
  | Some v ->
    Mbr_obs.Metrics.incr ~by:(Weight.lookups v) m_weight_lookups;
    Mbr_obs.Metrics.incr ~by:(Weight.sets v) m_weight_sets
  | None -> ()

let enumerate cfg graph ~block ~lib ~blockers =
  let out = ref [] in
  iter cfg graph ~block ~lib ~blockers (fun c -> out := c :: !out);
  List.rev !out
