module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Rng = Mbr_util.Rng

type config = {
  move_frac : float;
  move_sigma : float;
  retype_frac : float;
  remove_frac : float;
  add_frac : float;
}

let default_config =
  {
    move_frac = 0.10;
    move_sigma = 6.0;
    retype_frac = 0.02;
    remove_frac = 0.01;
    add_frac = 0.01;
  }

type stats = { moved : int; retyped : int; removed : int; added : int }

let total stats = stats.moved + stats.retyped + stats.removed + stats.added

let live_register dsg cid =
  let c = Design.cell dsg cid in
  (not c.Types.c_dead)
  && match c.Types.c_kind with Types.Register _ -> true | _ -> false

let clamp lo hi v = Float.max lo (Float.min hi v)

(* Gaussian jitter clamped to the core — an engineer nudging cells (or
   an incremental placer spreading them); the flow tolerates the
   resulting global-placement-style overlaps. *)
let move_one cfg rng pl core r =
  let p = Placement.location pl r in
  let q =
    Point.make
      (clamp core.Rect.lx core.Rect.hx
         (Rng.gaussian rng ~mean:p.Point.x ~stddev:cfg.move_sigma))
      (clamp core.Rect.ly core.Rect.hy
         (Rng.gaussian rng ~mean:p.Point.y ~stddev:cfg.move_sigma))
  in
  Placement.set pl r q

(* Swap for a pin-compatible sibling of the same class/width/scan
   flavour (a sizing ECO). *)
let retype_one rng dsg lib r =
  let cur = (Design.reg_attrs dsg r).Types.lib_cell in
  let siblings =
    List.filter
      (fun (c : Cell_lib.t) ->
        c.Cell_lib.scan = cur.Cell_lib.scan && c.Cell_lib.name <> cur.Cell_lib.name)
      (Library.cells_of lib ~func_class:cur.Cell_lib.func_class
         ~bits:cur.Cell_lib.bits)
  in
  match siblings with
  | [] -> false
  | _ -> (
    try
      Design.retype_register dsg r (Rng.pick_list rng siblings);
      true
    with Invalid_argument _ -> false)

(* A fresh single-bit register of an existing register's class, clocked
   on that register's clock net, with unconnected D/Q (new state the
   RTL grew; its data cones arrive in a later ECO). The name is derived
   from the design state so identically-seeded perturbations of
   identical designs stay in lockstep. *)
let add_one rng dsg pl lib core =
  match
    List.filter (fun r -> Placement.is_placed pl r) (Design.registers dsg)
  with
  | [] -> false
  | placed -> (
    let template = Rng.pick_list rng placed in
    let cls = (Design.reg_attrs dsg template).Types.lib_cell.Cell_lib.func_class in
    let clock =
      match Design.pin_of dsg template Types.Pin_clock with
      | Some pid -> (Design.pin dsg pid).Types.p_net
      | None -> None
    in
    match (clock, Library.widths lib ~func_class:cls) with
    | None, _ | _, [] -> false
    | Some clk, w0 :: _ -> (
      match
        List.filter
          (fun (c : Cell_lib.t) -> c.Cell_lib.scan = Cell_lib.No_scan)
          (Library.cells_of lib ~func_class:cls ~bits:w0)
      with
      | [] -> false
      | cell :: _ ->
        let name = Printf.sprintf "eco_reg_%d" (Design.next_cell_id dsg) in
        let attrs =
          {
            Types.lib_cell = cell;
            fixed = false;
            size_only = false;
            scan = None;
            gate_enable = None;
          }
        in
        let conn =
          Design.simple_conn
            ~d:(Array.make cell.Cell_lib.bits None)
            ~q:(Array.make cell.Cell_lib.bits None)
            ~clock:clk
        in
        let id = Design.add_register dsg name attrs conn in
        Placement.set pl id
          (Point.make
             (Rng.float_in rng core.Rect.lx core.Rect.hx)
             (Rng.float_in rng core.Rect.ly core.Rect.hy));
        true))

let perturb ?(config = default_config) rng (g : Generate.t) =
  let dsg = g.Generate.design in
  let pl = g.Generate.placement in
  let lib = g.Generate.library in
  let core = (Placement.floorplan pl).Floorplan.core in
  let regs = Design.registers dsg in
  let n_regs = List.length regs in
  let moved = ref 0 and retyped = ref 0 and removed = ref 0 and added = ref 0 in
  List.iter
    (fun r ->
      if Placement.is_placed pl r && Rng.chance rng config.move_frac then begin
        move_one config rng pl core r;
        incr moved
      end)
    regs;
  List.iter
    (fun r ->
      if live_register dsg r && Rng.chance rng config.retype_frac then
        if retype_one rng dsg lib r then incr retyped)
    regs;
  List.iter
    (fun r ->
      if live_register dsg r && Rng.chance rng config.remove_frac then begin
        Design.remove_cell dsg r;
        Placement.remove pl r;
        incr removed
      end)
    regs;
  let n_new =
    int_of_float (Float.round (config.add_frac *. float_of_int n_regs))
  in
  for _ = 1 to n_new do
    if add_one rng dsg pl lib core then incr added
  done;
  { moved = !moved; retyped = !retyped; removed = !removed; added = !added }
