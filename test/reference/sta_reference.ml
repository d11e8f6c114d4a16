(* The timing engine's per-pin formulas as they stood before the
   propagation plan became the engine's only graph, kept verbatim as an
   independent oracle for the equivalence tests: the wire delay, the
   underated arc delay, the launch arrival, the endpoint required time
   and the per-pin recompute from final predecessors (successors),
   applied by a plain Kahn-order full sweep over adjacency built here
   from Design and Placement — no propagation plan, no delay memo, no
   incremental state. Test code only; nothing in lib/ may depend on
   it. *)

module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell
module Engine = Mbr_sta.Engine
module Corner = Mbr_sta.Corner

type endpoint_kind = Ep_reg_d of Types.cell_id | Ep_out_port

(* One timing arc: [e_cell] tells a comb input->output arc from a net
   driver->sink arc. *)
type edge = { e_src : Types.pin_id; e_dst : Types.pin_id; e_cell : bool }

type ctx = {
  cfg : Engine.config;
  pl : Placement.t;
  dsg : Design.t;
  corners : Corner.t array;
  skew : Types.cell_id -> float;
}

type t = {
  nc : int;
  arrival : float array;  (* [pid * nc + k]; -inf when unreached *)
  required : float array;  (* [pid * nc + k]; +inf when unconstrained *)
}

(* The data graph: register D/Q pins, comb input/output pins and port
   pins of live cells. Clock distribution and scan pins carry no
   timing. *)
let in_graph dsg pid =
  let p = Design.pin dsg pid in
  let c = Design.cell dsg p.Types.p_cell in
  (not c.Types.c_dead)
  &&
  match (c.Types.c_kind, p.Types.p_kind) with
  | Types.Register _, (Types.Pin_q _ | Types.Pin_d _) -> true
  | Types.Comb _, (Types.Pin_in _ | Types.Pin_out) -> true
  | Types.Port _, Types.Pin_port -> true
  | _, _ -> false

let net_load c nid =
  let dsg = c.dsg in
  let pin_caps =
    List.fold_left
      (fun acc s -> acc +. Design.pin_cap dsg s)
      0.0 (Design.sinks dsg nid)
  in
  let wire_len =
    match Placement.net_box c.pl nid with
    | Some box -> Mbr_geom.Rect.half_perimeter box
    | None -> 0.0
  in
  pin_caps +. (c.cfg.Engine.wire_cap *. wire_len)

let wire_delay c src dst =
  let dsg = c.dsg in
  let psrc = Design.pin dsg src and pdst = Design.pin dsg dst in
  match
    ( Placement.location_opt c.pl psrc.Types.p_cell,
      Placement.location_opt c.pl pdst.Types.p_cell )
  with
  | Some _, Some _ ->
    let a = Placement.pin_location c.pl src in
    let b = Placement.pin_location c.pl dst in
    let len = Point.manhattan a b in
    let sink_cap = Design.pin_cap dsg dst in
    c.cfg.Engine.wire_res *. len
    *. ((c.cfg.Engine.wire_cap *. len /. 2.0) +. sink_cap)
  | _, _ -> 0.0

(* Underated arc delay; corners scale it multiplicatively (wire factor
   for net arcs, cell factor for comb arcs). *)
let compute_edge_base_delay c e =
  if not e.e_cell then wire_delay c e.e_src e.e_dst
  else begin
    let p = Design.pin c.dsg e.e_dst in
    let cell = Design.cell c.dsg p.Types.p_cell in
    match cell.Types.c_kind with
    | Types.Comb a ->
      let load =
        match p.Types.p_net with Some nid -> net_load c nid | None -> 0.0
      in
      a.Types.intrinsic +. (a.Types.drive_res *. load)
    | Types.Register _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
      0.0
  end

let edge_delay c k e =
  let base = compute_edge_base_delay c e in
  if e.e_cell then base *. c.corners.(k).Corner.cell
  else base *. c.corners.(k).Corner.wire

let clock_arrival c cid = c.skew cid

let launch_arrival c k pid =
  (* arrival at a startpoint, under corner [k] *)
  let p = Design.pin c.dsg pid in
  let cell = Design.cell c.dsg p.Types.p_cell in
  match (cell.Types.c_kind, p.Types.p_kind) with
  | Types.Register a, Types.Pin_q _ ->
    let load =
      match p.Types.p_net with Some nid -> net_load c nid | None -> 0.0
    in
    clock_arrival c p.Types.p_cell
    +. (Cell_lib.clk_to_q a.Types.lib_cell ~load *. c.corners.(k).Corner.cell)
  | Types.Port Types.In_port, _ -> c.cfg.Engine.input_delay
  | ( ( Types.Register _ | Types.Comb _ | Types.Clock_root | Types.Clock_gate _
      | Types.Port Types.Out_port ),
      _ ) ->
    0.0

let endpoint_required c k kind =
  match kind with
  | Ep_reg_d cid ->
    let a = Design.reg_attrs c.dsg cid in
    c.cfg.Engine.clock_period +. clock_arrival c cid
    -. (a.Types.lib_cell.Cell_lib.setup *. c.corners.(k).Corner.setup)
  | Ep_out_port -> c.cfg.Engine.clock_period -. c.cfg.Engine.output_delay

(* Startpoint / endpoint status of an in-graph pin. *)
let start_end dsg pid =
  let p = Design.pin dsg pid in
  let cell = Design.cell dsg p.Types.p_cell in
  match (cell.Types.c_kind, p.Types.p_kind) with
  | Types.Register _, Types.Pin_q _ -> (p.Types.p_net <> None, None)
  | Types.Register _, Types.Pin_d _ ->
    (false, if p.Types.p_net <> None then Some (Ep_reg_d p.Types.p_cell) else None)
  | Types.Port Types.In_port, _ -> (true, None)
  | Types.Port Types.Out_port, _ ->
    (false, if p.Types.p_net <> None then Some Ep_out_port else None)
  | _, _ -> (false, None)

(* Full analysis of the placement's design under [config] and
   [corners], with register [cid]'s clock arriving at [skew cid]. *)
let analyze ?(skew = fun _ -> 0.0) ~config ~corners pl =
  let dsg = Placement.design pl in
  let c = { cfg = config; pl; dsg; corners; skew } in
  let n = Design.n_pins dsg in
  let nc = Array.length corners in
  let g = Array.init n (in_graph dsg) in
  let succs = Array.make n [] and preds = Array.make n [] in
  let add e =
    succs.(e.e_src) <- e :: succs.(e.e_src);
    preds.(e.e_dst) <- e :: preds.(e.e_dst)
  in
  for nid = 0 to Design.n_nets dsg - 1 do
    if not (Design.net dsg nid).Types.n_is_clock then
      match Design.driver dsg nid with
      | Some d when g.(d) ->
        List.iter
          (fun s -> if g.(s) then add { e_src = d; e_dst = s; e_cell = false })
          (Design.sinks dsg nid)
      | Some _ | None -> ()
  done;
  for pid = 0 to n - 1 do
    let p = Design.pin dsg pid in
    if g.(pid) && p.Types.p_kind = Types.Pin_out then
      List.iter
        (fun i ->
          if g.(i) && (Design.pin dsg i).Types.p_dir = Types.Input then
            add { e_src = i; e_dst = pid; e_cell = true })
        (Design.pins_of dsg p.Types.p_cell)
  done;
  (* Kahn order over this adjacency *)
  let indeg = Array.map List.length preds in
  let order = Queue.create () in
  for pid = 0 to n - 1 do
    if g.(pid) && indeg.(pid) = 0 then Queue.add pid order
  done;
  let topo = ref [] in
  while not (Queue.is_empty order) do
    let pid = Queue.pop order in
    topo := pid :: !topo;
    List.iter
      (fun e ->
        indeg.(e.e_dst) <- indeg.(e.e_dst) - 1;
        if indeg.(e.e_dst) = 0 then Queue.add e.e_dst order)
      succs.(pid)
  done;
  let rev_topo = !topo in
  let topo = List.rev rev_topo in
  if List.length topo <> Array.fold_left (fun a b -> if b then a + 1 else a) 0 g
  then failwith "Sta_reference.analyze: combinational cycle";
  let arrival = Array.make (n * nc) neg_infinity in
  let required = Array.make (n * nc) infinity in
  let tmp = Array.make nc 0.0 in
  (* forward: a pin's arrival from its final predecessors *)
  List.iter
    (fun pid ->
      let st, _ = start_end dsg pid in
      for k = 0 to nc - 1 do
        tmp.(k) <- (if st then launch_arrival c k pid else neg_infinity)
      done;
      List.iter
        (fun e ->
          for k = 0 to nc - 1 do
            if arrival.((e.e_src * nc) + k) > neg_infinity then begin
              let a = arrival.((e.e_src * nc) + k) +. edge_delay c k e in
              if a > tmp.(k) then tmp.(k) <- a
            end
          done)
        preds.(pid);
      Array.blit tmp 0 arrival (pid * nc) nc)
    topo;
  (* backward: a pin's required time from its final successors *)
  List.iter
    (fun pid ->
      (match start_end dsg pid with
      | _, Some kind ->
        for k = 0 to nc - 1 do
          tmp.(k) <- endpoint_required c k kind
        done
      | _, None -> Array.fill tmp 0 nc infinity);
      List.iter
        (fun e ->
          for k = 0 to nc - 1 do
            if required.((e.e_dst * nc) + k) < infinity then begin
              let r = required.((e.e_dst * nc) + k) -. edge_delay c k e in
              if r < tmp.(k) then tmp.(k) <- r
            end
          done)
        succs.(pid);
      Array.blit tmp 0 required (pid * nc) nc)
    rev_topo;
  { nc; arrival; required }

let arrival r k pid =
  let v = r.arrival.((pid * r.nc) + k) in
  if v = neg_infinity then None else Some v

let required r k pid =
  let v = r.required.((pid * r.nc) + k) in
  if v = infinity then None else Some v
