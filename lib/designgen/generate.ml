module Rng = Mbr_util.Rng
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Cell_lib = Mbr_liberty.Cell
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Legalizer = Mbr_place.Legalizer
module Engine = Mbr_sta.Engine

type t = {
  design : Design.t;
  placement : Placement.t;
  library : Library.t;
  sta_config : Engine.config;
  corners : Mbr_sta.Corner.t array;
  profile : Profile.t;
}

(* ---- small gate library for the combinational fill ---- *)

let gate_kinds =
  [|
    ("INV_X1", 1, 1.8, 12.0, 0.45, 0.8);
    ("NAND2_X1", 2, 2.2, 16.0, 0.55, 1.2);
    ("NOR2_X1", 2, 2.4, 18.0, 0.55, 1.2);
    ("NAND3_X1", 3, 2.6, 22.0, 0.60, 1.6);
    ("AOI22_X1", 4, 2.8, 26.0, 0.65, 2.0);
    ("NAND2_X2", 2, 1.3, 14.0, 0.80, 1.7);
  |]

let comb_attrs_of (gate, n_inputs, drive_res, intrinsic, input_cap, area) =
  Types.
    {
      gate;
      n_inputs;
      drive_res;
      intrinsic;
      input_cap;
      area;
      g_width = area /. 1.2;
      g_height = 1.2;
    }

(* ---- register spec drawn before any cell exists ---- *)

type reg_spec = {
  mutable r_cell : Cell_lib.t;
  r_class : string;
  r_clock : Types.net_id;
  r_enable : string option;
  r_reset : Types.net_id option;
  mutable r_scan : Types.scan_info option;
  mutable r_fixed : bool;
  mutable r_size_only : bool;
  mutable r_cluster : int;
  mutable r_pos : Point.t;
}

let draw_width rng mix =
  let roll = Rng.float rng 1.0 in
  let rec pick acc = function
    | [] -> 1
    | [ (w, _) ] -> w
    | (w, f) :: rest -> if roll < acc +. f then w else pick (acc +. f) rest
  in
  pick 0.0 mix

let generate (p : Profile.t) =
  let rng = Rng.create p.Profile.seed in
  let lib = Presets.default () in
  let dsg = Design.create ~name:p.Profile.name in

  (* clock + reset + scan-enable infrastructure *)
  let clk_root_net = Design.add_net ~is_clock:true dsg "clk" in
  let _clk_root = Design.add_clock_root dsg "u_clk_root" clk_root_net in
  let gated =
    List.init p.Profile.n_gated_domains (fun i ->
        let enable = Printf.sprintf "en%d" i in
        let out = Design.add_net ~is_clock:true dsg (Printf.sprintf "clk_g%d" i) in
        let icg =
          Design.add_clock_gate dsg
            (Printf.sprintf "u_icg%d" i)
            ~enable ~ck_in:clk_root_net ~ck_out:out
        in
        (out, enable, icg))
  in
  let rst_net = Design.add_net dsg "rst_n" in
  let _rst_port = Design.add_port dsg "rst_n" Types.In_port rst_net in
  let se_net = Design.add_net dsg "scan_en" in
  let _se_port = Design.add_port dsg "scan_en" Types.In_port se_net in

  (* primary inputs used as cone sources *)
  let n_in_ports = max 4 (p.Profile.n_registers / 25) in
  let in_nets =
    Array.init n_in_ports (fun i ->
        let nid = Design.add_net dsg (Printf.sprintf "pi%d" i) in
        ignore (Design.add_port dsg (Printf.sprintf "pi%d" i) Types.In_port nid);
        nid)
  in

  (* ---- register specs ---- *)
  let pick_class () =
    if Rng.chance rng p.Profile.latch_frac then "dlat"
    else if Rng.chance rng p.Profile.scan_class_frac then "sdffr"
    else if Rng.bool rng then "dff"
    else "dffr"
  in
  let pick_clock () =
    if Rng.chance rng p.Profile.ungated_frac || gated = [] then
      (clk_root_net, None)
    else begin
      let out, enable, _ = Rng.pick_list rng gated in
      (out, Some enable)
    end
  in
  let pick_cell r_class width drive =
    match Library.cells_of lib ~func_class:r_class ~bits:width with
    | [] -> invalid_arg "Generate: no cell for class/width"
    | cells -> (
      match
        List.find_opt
          (fun (c : Cell_lib.t) ->
            c.Cell_lib.drive = drive && c.Cell_lib.scan <> Cell_lib.Per_bit_scan)
          cells
      with
      | Some c -> c
      | None -> List.nth cells 0)
  in
  let specs =
    Array.init p.Profile.n_registers (fun _ ->
        let r_class = pick_class () in
        let width = draw_width rng p.Profile.width_mix in
        let drive = if Rng.chance rng 0.25 then 2 else 1 in
        let cell = pick_cell r_class width drive in
        let r_clock, r_enable = pick_clock () in
        let r_reset =
          if r_class = "dff" || r_class = "dlat" then None else Some rst_net
        in
        let r_scan =
          if r_class = "sdffr" then
            Some
              Types.
                {
                  partition = Rng.int rng p.Profile.n_scan_partitions;
                  section = None (* ordered sections assigned below *);
                }
          else None
        in
        let composable = Rng.chance rng p.Profile.composable_frac in
        let r_fixed = (not composable) && Rng.bool rng in
        let r_size_only = (not composable) && not r_fixed in
        {
          r_cell = cell;
          r_class;
          r_clock;
          r_enable;
          r_reset;
          r_scan;
          r_fixed;
          r_size_only;
          r_cluster = -1;
          r_pos = Point.origin;
        })
  in
  (* ordered scan sections: consecutive runs of scannable registers *)
  let scannable =
    Array.to_list
      (Array.of_seq
         (Seq.filter (fun i -> specs.(i).r_scan <> None)
            (Seq.init p.Profile.n_registers Fun.id)))
  in
  let n_ordered =
    int_of_float (float_of_int (List.length scannable) *. p.Profile.ordered_scan_frac)
  in
  let rec assign_sections sec pos budget = function
    | [] -> ()
    | _ when budget <= 0 -> ()
    | i :: rest ->
      let spec = specs.(i) in
      (match spec.r_scan with
      | Some s -> spec.r_scan <- Some { s with Types.section = Some (sec, pos) }
      | None -> ());
      let sec, pos = if pos >= 7 then (sec + 1, 0) else (sec, pos + 1) in
      assign_sections sec pos (budget - 1) rest
  in
  assign_sections 0 0 n_ordered scannable;

  (* ---- clustering: group compatible registers, chunk into clusters ----
     A flat profile deliberately destroys the module correlation: every
     register lands in one shuffled pool, so spatial neighbours mix
     classes, clocks, enables and scan partitions freely. *)
  let group_key i =
    if p.Profile.flat then ("", clk_root_net, None, -1)
    else begin
      let s = specs.(i) in
      ( s.r_class,
        s.r_clock,
        s.r_enable,
        match s.r_scan with Some sc -> sc.Types.partition | None -> -1 )
    end
  in
  let groups = Hashtbl.create 32 in
  Array.iteri
    (fun i _ ->
      let k = group_key i in
      let cur = match Hashtbl.find_opt groups k with Some l -> l | None -> [] in
      Hashtbl.replace groups k (i :: cur))
    specs;
  let clusters = ref [] in
  let n_clusters = ref 0 in
  Hashtbl.iter
    (fun _ members ->
      let members = List.rev members in
      let members =
        if p.Profile.flat then begin
          let a = Array.of_list members in
          Rng.shuffle rng a;
          Array.to_list a
        end
        else members
      in
      let rec chunk = function
        | [] -> ()
        | l ->
          let size =
            max 4
              (p.Profile.cluster_size_mean / 2
              + Rng.int rng (max 1 p.Profile.cluster_size_mean))
          in
          let rec take k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: rest -> take (k - 1) (x :: acc) rest
          in
          let cl, rest = take size [] l in
          let id = !n_clusters in
          incr n_clusters;
          List.iter (fun i -> specs.(i).r_cluster <- id) cl;
          clusters := (id, cl) :: !clusters;
          chunk rest
      in
      chunk members)
    groups;
  let clusters = List.rev !clusters in

  (* Width homogenisation per cluster: a synthesized bus bank yields a
     run of equal-width MBRs, so most registers of a bank share one
     dominant width (with stragglers from the global mix). Likewise,
     composability is module-correlated: designers pin whole banks
     (interface/CDC modules), not random registers, so each cluster is
     mostly composable or mostly not. Flat profiles skip this entirely:
     widths and composability stay independent draws. *)
  if not p.Profile.flat then
  List.iter
    (fun (_, members) ->
      let dominant = draw_width rng p.Profile.width_mix in
      let cluster_composable = Rng.chance rng p.Profile.composable_frac in
      List.iter
        (fun i ->
          let s = specs.(i) in
          let width =
            if Rng.chance rng 0.95 then dominant
            else draw_width rng p.Profile.width_mix
          in
          if width <> s.r_cell.Cell_lib.bits then
            s.r_cell <- pick_cell s.r_class width s.r_cell.Cell_lib.drive;
          let composable =
            if Rng.chance rng 0.97 then cluster_composable
            else not cluster_composable
          in
          s.r_fixed <- (not composable) && Rng.bool rng;
          s.r_size_only <- (not composable) && not s.r_fixed)
        members)
    clusters;

  (* ---- floorplan sizing ---- *)
  let reg_area =
    Array.fold_left (fun acc s -> acc +. s.r_cell.Cell_lib.area) 0.0 specs
  in
  let n_gates_target =
    int_of_float (float_of_int p.Profile.n_registers *. p.Profile.gates_per_reg)
  in
  let avg_gate_area = 1.4 in
  let total_area = reg_area +. (float_of_int n_gates_target *. avg_gate_area) in
  let core_side =
    let raw = sqrt (total_area /. p.Profile.target_util) in
    (* round up to whole rows *)
    ceil (raw /. 1.2) *. 1.2
  in
  let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:core_side ~hy:core_side in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp dsg in
  let occ = Legalizer.Occupancy.of_placement pl in

  (* Cluster centers on a jittered floorplan grid: placed RTL modules
     occupy distinct regions, so banks rarely interleave. *)
  let margin = 4.0 in
  let fcols = max 1 (int_of_float (ceil (sqrt (float_of_int !n_clusters)))) in
  let fpitch = (core_side -. (2.0 *. margin)) /. float_of_int fcols in
  let order = Array.init !n_clusters Fun.id in
  Rng.shuffle rng order;
  let centers = Array.make !n_clusters Point.origin in
  Array.iteri
    (fun slot cid ->
      let col = slot mod fcols and row = slot / fcols in
      let jitter () = Rng.float_in rng (-0.15 *. fpitch) (0.15 *. fpitch) in
      centers.(cid) <-
        Point.make
          (margin +. ((float_of_int col +. 0.5) *. fpitch) +. jitter ())
          (margin +. ((float_of_int row +. 0.5) *. fpitch) +. jitter ()))
    order;

  (* ---- register positions: grid around the cluster center ---- *)
  List.iter
    (fun (cid, members) ->
      let c = centers.(cid) in
      let k = List.length members in
      (* banks go down as wide strips of ~3 rows, the way placers lay
         out synthesized buses — long clean runs per row *)
      let cols = max 1 (int_of_float (ceil (float_of_int k /. 3.0))) in
      List.iteri
        (fun idx i ->
          let s = specs.(i) in
          let col = idx mod cols and row = idx / cols in
          let dx = (float_of_int col -. (float_of_int cols /. 2.0)) *. (s.r_cell.Cell_lib.width +. 1.0) in
          let dy = (float_of_int row -. (float_of_int cols /. 2.0)) *. 2.4 in
          let desired =
            Floorplan.clamp_ll fp ~w:s.r_cell.Cell_lib.width ~h:1.2
              (Point.add c (Point.make dx dy))
          in
          let pos =
            match Legalizer.Occupancy.find_nearest occ ~w:s.r_cell.Cell_lib.width desired with
            | Some pt -> pt
            | None -> desired
          in
          s.r_pos <- pos;
          Legalizer.Occupancy.add occ
            (Rect.make ~lx:pos.Point.x ~ly:pos.Point.y
               ~hx:(pos.Point.x +. s.r_cell.Cell_lib.width)
               ~hy:(pos.Point.y +. 1.2)))
        members)
    clusters;

  (* ---- Q nets ---- *)
  let q_nets =
    Array.mapi
      (fun i s ->
        Array.init s.r_cell.Cell_lib.bits (fun b ->
            Design.add_net dsg (Printf.sprintf "q_%d_%d" i b)))
      specs
  in

  (* Cluster-level cone plans: real designs move buses between register
     banks, so all bits of a bank see near-identical logic depth and
     wire span — that similarity is exactly what makes banks mergeable
     (similar slacks, §2 timing compatibility). Each cluster picks one
     source cluster and one logic depth; its registers' cones follow
     the plan with small per-bit deviations. *)
  let cluster_members = Array.make !n_clusters [||] in
  List.iter
    (fun (cid, members) -> cluster_members.(cid) <- Array.of_list members)
    clusters;
  let cluster_src =
    Array.init !n_clusters (fun cid ->
        if Rng.chance rng p.Profile.cross_cluster_frac then
          Rng.int rng !n_clusters
        else begin
          (* a spatially nearby cluster, or itself *)
          let c = centers.(cid) in
          let best = ref cid and best_d = ref infinity in
          for o = 0 to !n_clusters - 1 do
            if o <> cid then begin
              let d = Point.manhattan c centers.(o) in
              if d < !best_d then begin
                best_d := d;
                best := o
              end
            end
          done;
          if Rng.chance rng 0.4 then cid else !best
        end)
  in
  (* Bimodal logic depth: optimized industrial snapshots concentrate
     their failing endpoints in a minority of deep, critical regions
     while the bulk of the design holds comfortable slack. *)
  let cluster_depth =
    Array.init !n_clusters (fun _ ->
        if Rng.chance rng 0.40 then 3 + Rng.int rng 2 else 1 + Rng.int rng 2)
  in
  let random_source_in cluster =
    let members = cluster_members.(cluster) in
    let pick_reg = Rng.pick rng members in
    let src = specs.(pick_reg) in
    let bit = Rng.int rng src.r_cell.Cell_lib.bits in
    (q_nets.(pick_reg).(bit), Point.make src.r_pos.Point.x src.r_pos.Point.y)
  in
  let random_source i =
    let s = specs.(i) in
    let cluster =
      if Rng.chance rng 0.95 then cluster_src.(s.r_cluster)
      else Rng.int rng !n_clusters
    in
    random_source_in cluster
  in

  (* ---- combinational cones driving each D bit ---- *)
  let gates_made = ref 0 in
  let gate_budget_per_bit =
    let total_bits =
      Array.fold_left (fun acc s -> acc + s.r_cell.Cell_lib.bits) 0 specs
    in
    float_of_int n_gates_target /. float_of_int (max 1 total_bits)
  in
  let place_gate attrs desired =
    let w = attrs.Types.g_width in
    let desired = Floorplan.clamp_ll fp ~w ~h:1.2 desired in
    match Legalizer.Occupancy.find_nearest occ ~w desired with
    | Some pt ->
      Legalizer.Occupancy.add occ
        (Rect.make ~lx:pt.Point.x ~ly:pt.Point.y ~hx:(pt.Point.x +. w)
           ~hy:(pt.Point.y +. 1.2));
      pt
    | None -> desired
  in
  let gate_positions = ref [] in
  ignore gate_budget_per_bit;
  let build_cone i =
    let s = specs.(i) in
    let base_depth = cluster_depth.(s.r_cluster) in
    let depth =
      let r = Rng.float rng 1.0 in
      if r < 0.04 then 0 (* direct register-to-register wire *)
      else if r < 0.10 then max 1 (base_depth - 1)
      else if r < 0.16 then min 4 (base_depth + 1)
      else base_depth
    in
    let src_net, src_pos =
      if Rng.chance rng 0.03 then (Rng.pick rng in_nets, Point.origin)
      else random_source i
    in
    if depth = 0 then src_net
    else begin
      let cur = ref src_net in
      for level = 1 to depth do
        let kind = Rng.pick rng gate_kinds in
        let attrs = comb_attrs_of kind in
        let extra_inputs =
          List.init (attrs.Types.n_inputs - 1) (fun _ ->
              if Rng.chance rng 0.1 then Rng.pick rng in_nets
              else fst (random_source i))
        in
        let out =
          Design.add_net dsg (Printf.sprintf "n_%d" (Design.n_nets dsg))
        in
        let gid =
          Design.add_comb dsg
            (Printf.sprintf "g%d" !gates_made)
            attrs
            ~inputs:(!cur :: extra_inputs)
            ~output:out
        in
        incr gates_made;
        (* place along the source -> register segment *)
        let fr = float_of_int level /. float_of_int (depth + 1) in
        let base =
          Point.make
            (src_pos.Point.x +. ((s.r_pos.Point.x -. src_pos.Point.x) *. fr))
            (src_pos.Point.y +. ((s.r_pos.Point.y -. src_pos.Point.y) *. fr))
        in
        let jitter =
          Point.make (Rng.float_in rng (-4.0) 4.0) (Rng.float_in rng (-4.0) 4.0)
        in
        let pos = place_gate attrs (Point.add base jitter) in
        gate_positions := (gid, pos) :: !gate_positions;
        cur := out
      done;
      !cur
    end
  in

  (* ---- create register cells ---- *)
  let reg_ids =
    Array.mapi
      (fun i s ->
        let bits = s.r_cell.Cell_lib.bits in
        let d = Array.init bits (fun _ -> Some (build_cone i)) in
        let q = Array.map (fun nid -> Some nid) q_nets.(i) in
        (* flat netlists scramble bit order: q_<i>_<b> no longer sits at
           bit index b, so nothing downstream can read order off names *)
        if p.Profile.flat then Rng.shuffle rng q;
        let conn =
          {
            Design.d_nets = d;
            q_nets = q;
            clock = s.r_clock;
            reset = s.r_reset;
            scan_enable = (if s.r_scan <> None then Some se_net else None);
            scan_ins = [];
            scan_outs = [];
          }
        in
        let attrs =
          Types.
            {
              lib_cell = s.r_cell;
              fixed = s.r_fixed;
              size_only = s.r_size_only;
              scan = s.r_scan;
              gate_enable = s.r_enable;
            }
        in
        let id = Design.add_register dsg (Printf.sprintf "r%d" i) attrs conn in
        Placement.set pl id s.r_pos;
        id)
      specs
  in
  ignore reg_ids;
  List.iter (fun (gid, pos) -> Placement.set pl gid pos) !gate_positions;

  (* ICGs and clock root placed at their fanout centroids *)
  let place_icg (out_net, _, icg) =
    let sink_regs =
      Array.to_list
        (Array.of_seq
           (Seq.filter_map
              (fun i ->
                if specs.(i).r_clock = out_net then Some specs.(i).r_pos else None)
              (Seq.init p.Profile.n_registers Fun.id)))
    in
    let at =
      match sink_regs with
      | [] -> Rect.center core
      | pts -> Point.centroid pts
    in
    Placement.set pl icg (Floorplan.clamp_ll fp ~w:2.0 ~h:1.2 at)
  in
  List.iter place_icg gated;
  (match Design.find_cell dsg "u_clk_root" with
  | Some id -> Placement.set pl id (Rect.center core)
  | None -> ());

  (* output ports on dangling Q nets *)
  let n_out = ref 0 in
  Array.iteri
    (fun i nets ->
      ignore i;
      Array.iter
        (fun nid ->
          if Design.sinks dsg nid = [] && Rng.chance rng 0.4 then begin
            let pid =
              Design.add_port dsg (Printf.sprintf "po%d" !n_out) Types.Out_port nid
            in
            incr n_out;
            (* pin on the boundary nearest the driver *)
            let edge_pt =
              Point.make core_side (Rng.float_in rng 0.0 core_side)
            in
            Placement.set pl pid edge_pt
          end)
        nets)
    q_nets;
  (* input ports placed on the left edge *)
  Array.iter
    (fun nid ->
      match Design.driver dsg nid with
      | Some pid ->
        let cid = (Design.pin dsg pid).Types.p_cell in
        Placement.set pl cid (Point.make 0.0 (Rng.float_in rng 0.0 core_side))
      | None -> ())
    in_nets;
  (match Design.find_cell dsg "rst_n" with
  | Some id -> Placement.set pl id (Point.make 0.0 0.0)
  | None -> ());
  (match Design.find_cell dsg "scan_en" with
  | Some id -> Placement.set pl id (Point.make 0.0 core_side)
  | None -> ());

  (* scan chains: one stitched chain per partition (the paper's §2 scan
     constraints are meaningful only on designs that actually carry
     chains) *)
  let _stitch = Mbr_dft.Scan_stitch.stitch pl in

  (* ---- clock-period calibration against the failing-endpoint target ---- *)
  let probe_cfg = { Engine.default_config with Engine.clock_period = 100000.0 } in
  let eng = Engine.build ~config:probe_cfg pl in
  let slacks = List.map snd (Engine.endpoint_slacks eng) in
  let period =
    match slacks with
    | [] -> Engine.default_config.Engine.clock_period
    | _ ->
      let vs =
        Array.of_list (List.map (fun s -> 100000.0 -. s) slacks)
      in
      let keep = (1.0 -. p.Profile.failing_frac) *. 100.0 in
      Mbr_util.Stats.percentile vs keep
  in
  let sta_config = { Engine.default_config with Engine.clock_period = period } in
  let corners = Mbr_sta.Corner.spread_set p.Profile.corner_spread in
  { design = dsg; placement = pl; library = lib; sta_config; corners; profile = p }

let gate_resolver name =
  Array.fold_left
    (fun acc ((g, _, _, _, _, _) as kind) ->
      match acc with
      | Some _ -> acc
      | None -> if g = name then Some (comb_attrs_of kind) else None)
    None gate_kinds

let to_global_placement ?(sigma = 1.5) ?(seed = 0x61B41) t =
  let rng = Rng.create seed in
  let pl = t.placement in
  let fp = Placement.floorplan pl in
  let dsg = t.design in
  let moves = ref [] in
  Placement.iter
    (fun cid (p : Point.t) ->
      match (Design.cell dsg cid).Types.c_kind with
      | Types.Register _ | Types.Comb _ ->
        let w, h = Design.cell_size dsg cid in
        let jittered =
          Point.make
            (p.Point.x +. Rng.gaussian rng ~mean:0.0 ~stddev:sigma)
            (p.Point.y +. Rng.gaussian rng ~mean:0.0 ~stddev:sigma)
        in
        moves := (cid, Floorplan.clamp_ll fp ~w ~h jittered) :: !moves
      | Types.Clock_root | Types.Clock_gate _ | Types.Port _ -> ())
    pl;
  List.iter (fun (cid, p) -> Placement.set pl cid p) !moves

let gate_cells () =
  Array.to_list
    (Array.map
       (fun (g, n_inputs, drive_res, intrinsic, input_cap, area) ->
         Mbr_liberty.Liberty_io.
           {
             g_name = g;
             g_inputs = n_inputs;
             g_drive_res = drive_res;
             g_intrinsic = intrinsic;
             g_input_cap = input_cap;
             g_area = area;
           })
       gate_kinds)

let width_histogram dsg =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun cid ->
      let a = Design.reg_attrs dsg cid in
      let b = a.Types.lib_cell.Cell_lib.bits in
      let cur = match Hashtbl.find_opt tbl b with Some n -> n | None -> 0 in
      Hashtbl.replace tbl b (cur + 1))
    (Design.registers dsg);
  List.sort compare (Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl [])
