module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell

type report = { n_chains : int; n_hops : int; wirelength : float }

(* Scannable live registers grouped by partition, and the live
   registers outside every partition. *)
let by_partition dsg =
  let tbl = Hashtbl.create 8 in
  let chainless = ref [] in
  List.iter
    (fun cid ->
      match (Design.reg_attrs dsg cid).Types.scan with
      | Some s ->
        let cur =
          match Hashtbl.find_opt tbl s.Types.partition with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace tbl s.Types.partition (cid :: cur)
      | None -> chainless := cid :: !chainless)
    (Design.registers dsg);
  ( List.sort compare (Hashtbl.fold (fun p l acc -> (p, List.rev l) :: acc) tbl []),
    !chainless )

(* The SI/SO hop pins a register contributes, in chain order. *)
let hops dsg cid =
  let a = Design.reg_attrs dsg cid in
  let bit_pair b =
    match
      (Design.pin_of dsg cid (Types.Pin_scan_in b),
       Design.pin_of dsg cid (Types.Pin_scan_out b))
    with
    | Some si, Some so -> Some (si, so)
    | _, _ -> None
  in
  match a.Types.lib_cell.Cell_lib.scan with
  | Cell_lib.No_scan -> []
  | Cell_lib.Internal_scan -> ( match bit_pair 0 with Some p -> [ p ] | None -> [] )
  | Cell_lib.Per_bit_scan ->
    List.filter_map bit_pair (List.init a.Types.lib_cell.Cell_lib.bits Fun.id)

let chain_order pl members =
  let dsg = Placement.design pl in
  let section cid =
    match (Design.reg_attrs dsg cid).Types.scan with
    | Some { Types.section = Some (sec, pos); _ } -> Some (sec, pos, cid)
    | Some { Types.section = None; _ } | None -> None
  in
  let sectioned =
    List.map (fun (_, _, cid) -> cid) (List.sort compare (List.filter_map section members))
  in
  let placed cid = Placement.location_opt pl cid <> None in
  let placed_free, unplaced_free =
    List.partition placed (List.filter (fun cid -> section cid = None) members)
  in
  (* greedy nearest-neighbour walk over the placed free registers from
     the last sectioned one: the nearest unused register is next, the
     earliest on a tie (with no start every distance is infinite, so
     the walk begins at the first) *)
  let ax, ay =
    match List.rev sectioned with
    | last :: _ when placed last ->
      let c = Placement.center pl last in
      (ref c.Point.x, ref c.Point.y)
    | _ :: _ | [] -> (ref infinity, ref infinity)
  in
  let cids = Array.of_list placed_free in
  let n = Array.length cids in
  let xs = Array.map (fun c -> (Placement.center pl c).Point.x) cids in
  let ys = Array.map (fun c -> (Placement.center pl c).Point.y) cids in
  let used = Array.make n false and walked = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) and best_d = ref 0.0 in
    for i = 0 to n - 1 do
      if not used.(i) then begin
        (* Point.manhattan, written out: calls across modules are not
           inlined, and a float returned from one is boxed *)
        let d = Float.abs (!ax -. xs.(i)) +. Float.abs (!ay -. ys.(i)) in
        if !best < 0 || d < !best_d then begin
          best := i;
          best_d := d
        end
      end
    done;
    used.(!best) <- true;
    walked.(k) <- cids.(!best);
    ax := xs.(!best);
    ay := ys.(!best)
  done;
  sectioned @ Array.to_list walked @ unplaced_free

(* The chain ports by name, from one pass over the cells: the first
   live cell of each [scan_si<p>]/[scan_so<p>] name, as
   [Design.find_cell] would find it. *)
let scan_ports dsg =
  let tbl = Hashtbl.create 16 in
  for cid = 0 to Design.next_cell_id dsg - 1 do
    let c = Design.cell dsg cid in
    if
      (not c.Types.c_dead)
      && String.starts_with ~prefix:"scan_s" c.Types.c_name
      && not (Hashtbl.mem tbl c.Types.c_name)
    then Hashtbl.add tbl c.Types.c_name cid
  done;
  Hashtbl.find_opt tbl

let stitch pl =
  let dsg = Placement.design pl in
  let chains, chainless = by_partition dsg in
  let find_port = scan_ports dsg in
  let port_pin name =
    match find_port name with
    | Some cid -> (
      match Design.pins_of dsg cid with pid :: _ -> Some pid | [] -> None)
    | None -> None
  in
  (* registers outside every chain keep no scan wiring *)
  List.iter
    (fun cid ->
      List.iter
        (fun (si, so) ->
          Design.disconnect dsg si;
          Design.disconnect dsg so)
        (hops dsg cid))
    chainless;
  let n_hops = ref 0 in
  let wirelength = ref 0.0 in
  let placed pid = Placement.location_opt pl (Design.pin dsg pid).Types.p_cell <> None in
  (* The one wiring rule: a chain driver (the scan-in port or a
     register SO) keeps the net it drives, and one without a net gets a
     fresh one. Each SI joins the net its predecessor drives ([connect]
     leaves an unchanged hop alone) and the scan-out port joins the
     last SO's net; every SI of the chain is attached once, so a stale
     sink moves off its old net. *)
  let stitch_one (partition, members) =
    match List.concat_map (hops dsg) (chain_order pl members) with
    | [] -> false
    | hop_list ->
      let net_of driver =
        match (Design.pin dsg driver).Types.p_net with
        | Some nid -> nid
        | None ->
          let nid = Design.add_net dsg (Printf.sprintf "scan%d_%d" partition !n_hops) in
          Design.connect dsg driver nid;
          nid
      in
      let si_name = Printf.sprintf "scan_si%d" partition in
      let si_port =
        match port_pin si_name with
        | Some pid -> pid
        | None ->
          let nid = Design.add_net dsg (si_name ^ "_net") in
          List.hd (Design.pins_of dsg (Design.add_port dsg si_name Types.In_port nid))
      in
      let last_so =
        List.fold_left
          (fun driver (si, so) ->
            Design.connect dsg si (net_of driver);
            incr n_hops;
            if driver <> si_port && placed driver && placed si then
              wirelength :=
                !wirelength
                +. Point.manhattan (Placement.pin_location pl driver)
                     (Placement.pin_location pl si);
            so)
          si_port hop_list
      in
      let so_name = Printf.sprintf "scan_so%d" partition in
      (match port_pin so_name with
      | Some pid -> Design.connect dsg pid (net_of last_so)
      | None -> ignore (Design.add_port dsg so_name Types.Out_port (net_of last_so)));
      true
  in
  let n_chains = List.length (List.filter stitch_one chains) in
  { n_chains; n_hops = !n_hops; wirelength = !wirelength }

let verify dsg =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let chains, _ = by_partition dsg in
  let find_port = scan_ports dsg in
  List.iter
    (fun (partition, members) ->
      let expected_hops =
        List.fold_left (fun acc cid -> acc + List.length (hops dsg cid)) 0 members
      in
      if expected_hops > 0 then begin
        match find_port (Printf.sprintf "scan_si%d" partition) with
        | None -> bad "partition %d has scan registers but no scan-in port" partition
        | Some port -> (
          let start_net =
            match (Design.cell dsg port).Types.c_pins with
            | pid :: _ -> (Design.pin dsg pid).Types.p_net
            | [] -> None
          in
          match start_net with
          | None -> bad "partition %d scan-in port unconnected" partition
          | Some nid ->
            (* walk SI -> (register) -> SO -> next SI *)
            let visited_regs = Hashtbl.create 16 in
            let section_watch = ref [] in
            let rec follow nid steps =
              if steps > expected_hops + 2 then
                bad "partition %d chain does not terminate" partition
              else begin
                let sis =
                  List.filter
                    (fun pid ->
                      match (Design.pin dsg pid).Types.p_kind with
                      | Types.Pin_scan_in _ -> true
                      | _ -> false)
                    (Design.sinks dsg nid)
                in
                match sis with
                | [] ->
                  (* must be the scan-out port *)
                  let is_so_port =
                    List.exists
                      (fun pid ->
                        let c = Design.cell dsg (Design.pin dsg pid).Types.p_cell in
                        c.Types.c_name = Printf.sprintf "scan_so%d" partition)
                      (Design.sinks dsg nid)
                  in
                  if not is_so_port then
                    bad "partition %d chain dead-ends mid-way" partition
                | [ si ] -> (
                  let p = Design.pin dsg si in
                  let cid = p.Types.p_cell in
                  let bit =
                    match p.Types.p_kind with Types.Pin_scan_in b -> b | _ -> 0
                  in
                  Hashtbl.replace visited_regs (cid, bit) ();
                  (match (Design.reg_attrs dsg cid).Types.scan with
                  | Some { Types.section = Some (sec, pos); _ } ->
                    section_watch := (sec, pos) :: !section_watch
                  | Some { Types.section = None; _ } | None -> ());
                  match Design.pin_of dsg cid (Types.Pin_scan_out bit) with
                  | Some so -> (
                    match (Design.pin dsg so).Types.p_net with
                    | Some next -> follow next (steps + 1)
                    | None -> bad "partition %d: SO of %s bit %d unconnected"
                                partition (Design.cell dsg cid).Types.c_name bit)
                  | None -> bad "partition %d: missing SO pin" partition)
                | _ :: _ :: _ -> bad "partition %d: net fans out to several SIs" partition
              end
            in
            follow nid 0;
            let n_visited = Hashtbl.length visited_regs in
            if n_visited <> expected_hops then
              bad "partition %d: chain visits %d of %d hops" partition n_visited
                expected_hops;
            (* ordered sections must appear in ascending position *)
            let per_section = Hashtbl.create 4 in
            List.iter
              (fun (sec, pos) ->
                let cur =
                  match Hashtbl.find_opt per_section sec with Some l -> l | None -> []
                in
                Hashtbl.replace per_section sec (pos :: cur))
              (List.rev !section_watch);
            Hashtbl.iter
              (fun sec poss ->
                let order = List.rev poss in
                if order <> List.sort compare order then
                  bad "partition %d: section %d out of order" partition sec)
              per_section)
      end)
    chains;
  List.rev !problems
