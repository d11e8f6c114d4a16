module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Csr = Mbr_graph.Csr
module Sp = Mbr_ilp.Set_partition

type t = {
  design : Design.t;
  placement : Placement.t;
  library : Library.t;
  graph : Compat.graph;
  blocker_index : Types.cell_id Spatial.t;
  names : string array;
}

let names = [| "A"; "B"; "C"; "D"; "E"; "F" |]

(* Fig. 2 reconstruction: register centers in µm. *)
let centers =
  [|
    Point.make 0.0 6.0 (* A, 1 bit *);
    Point.make 8.0 8.0 (* B, 1 bit *);
    Point.make 8.0 0.0 (* C, 1 bit *);
    Point.make 8.0 4.0 (* D, 1 bit *);
    Point.make 2.0 2.0 (* E, 4 bits *);
    Point.make 12.0 4.0 (* F, 2 bits *);
  |]

let widths = [| 1; 1; 1; 1; 4; 2 |]

(* Fig. 1 edges. *)
let edges =
  [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (1, 5); (2, 5); (0, 4); (2, 4) ]

let build () =
  let library = Presets.paper_example () in
  let dsg = Design.create ~name:"paper_example" in
  let core = Rect.make ~lx:(-20.0) ~ly:(-20.0) ~hx:40.0 ~hy:40.0 in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp dsg in
  let clk = Design.add_net ~is_clock:true dsg "clk" in
  let _root = Design.add_clock_root dsg "u_clk" clk in
  (match Design.find_cell dsg "u_clk" with
  | Some id -> Placement.set pl id (Point.make 6.0 (-10.0))
  | None -> ());
  let cids =
    Array.mapi
      (fun i name ->
        let bits = widths.(i) in
        let cell = Library.find library (Printf.sprintf "EX_DFF%d" bits) in
        (* each D is driven by its own input port, each Q loads its own
           output port, placed at the register location so the LP-based
           MBR placement is anchored near Fig. 2 *)
        let d =
          Array.init bits (fun b ->
              let nid = Design.add_net dsg (Printf.sprintf "d_%s_%d" name b) in
              let port =
                Design.add_port dsg (Printf.sprintf "pi_%s_%d" name b) Types.In_port nid
              in
              Placement.set pl port centers.(i);
              Some nid)
        in
        let q =
          Array.init bits (fun b ->
              let nid = Design.add_net dsg (Printf.sprintf "q_%s_%d" name b) in
              let port =
                Design.add_port dsg (Printf.sprintf "po_%s_%d" name b) Types.Out_port nid
              in
              Placement.set pl port centers.(i);
              Some nid)
        in
        let attrs =
          Types.
            {
              lib_cell = cell;
              fixed = false;
              size_only = false;
              scan = None;
              gate_enable = None;
            }
        in
        let conn = Design.simple_conn ~d ~q ~clock:clk in
        let id = Design.add_register dsg name attrs conn in
        let corner =
          Point.make
            (centers.(i).Point.x -. (cell.Cell_lib.width /. 2.0))
            (centers.(i).Point.y -. (cell.Cell_lib.height /. 2.0))
        in
        Placement.set pl id corner;
        id)
      names
  in
  (* reg_infos with generous slacks: the example exercises geometry and
     weights, not timing *)
  let everywhere = Rect.expand core (-1.0) in
  let infos =
    Array.mapi
      (fun i cid ->
        let cell = Library.find library (Printf.sprintf "EX_DFF%d" widths.(i)) in
        Compat.
          {
            cid;
            bits = widths.(i);
            func_class = "dff";
            clock = clk;
            enable = None;
            reset = None;
            scan = None;
            drive_res = cell.Cell_lib.drive_res;
            d_slack = 100.0;
            q_slack = 100.0;
            footprint = Placement.footprint pl cid;
            feasible = everywhere;
            center = centers.(i);
          })
      cids
  in
  let g = Csr.Builder.create 6 in
  List.iter (fun (a, b) -> Csr.Builder.add_edge g a b) edges;
  let blocker_index = Spatial.create () in
  Array.iteri (fun i cid -> Spatial.add blocker_index cid centers.(i)) cids;
  {
    design = dsg;
    placement = pl;
    library;
    graph = { Compat.adj = Csr.Builder.finish g; infos };
    blocker_index;
    names;
  }

let node t name =
  let rec find i =
    if i >= Array.length t.names then raise Not_found
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let block t = List.init (Array.length t.names) Fun.id

(* The enumeration's own kernel: a view of the whole example (node i at
   position i), queried with the member mask. *)
let weight_of t member_names =
  let members = List.map (node t) member_names in
  match members with
  | [ _ ] -> 1.0
  | _ ->
    let infos = t.graph.Compat.infos in
    let view =
      Weight.view
        ~footprints:(Array.map (fun i -> i.Compat.footprint) infos)
        ~cids:(Array.map (fun i -> i.Compat.cid) infos)
        (Candidate.blockers t.graph ~block:(block t) t.blocker_index)
    in
    let mask = List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 members in
    let bits = List.fold_left (fun acc i -> acc + infos.(i).Compat.bits) 0 members in
    Weight.formula ~bits ~blockers:(Weight.blockers view mask)

let candidates ?(allow_incomplete = false) ?(incomplete_area_overhead = 0.05) t =
  let cfg =
    {
      Candidate.allow_incomplete;
      incomplete_area_overhead;
      max_per_block = 100_000;
      use_weights = true;
    }
  in
  Candidate.enumerate cfg t.graph ~block:(block t) ~lib:t.library
    ~blockers:(Candidate.blockers t.graph ~block:(block t) t.blocker_index)

let solve ?allow_incomplete ?incomplete_area_overhead t =
  let cands = candidates ?allow_incomplete ?incomplete_area_overhead t in
  let arr = Array.of_list cands in
  let problem =
    {
      Sp.n_elems = 6;
      candidates =
        Array.map
          (fun (c : Candidate.t) ->
            { Sp.weight = c.Candidate.weight; elems = c.Candidate.members })
          arr;
    }
  in
  let r = Sp.solve problem in
  let groups = List.map (fun i -> arr.(i).Candidate.member_cids) r.Sp.chosen in
  (groups, r.Sp.cost)
