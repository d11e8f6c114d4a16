module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell

(* ps of slack never spent *)
let margin = 20.0

let worst_q_load eng dsg cid =
  List.fold_left
    (fun acc pid ->
      let p = Design.pin dsg pid in
      match p.Types.p_kind with
      | Types.Pin_q _ -> Float.max acc (Engine.output_load eng pid)
      | Types.Pin_d _ | Types.Pin_clock | Types.Pin_reset | Types.Pin_scan_in _
      | Types.Pin_scan_out _ | Types.Pin_scan_enable | Types.Pin_in _
      | Types.Pin_out | Types.Pin_port ->
        acc)
    0.0 (Design.pins_of dsg cid)

let downsize eng lib cids =
  let pl = Engine.placement eng in
  let dsg = Placement.design pl in
  (* downsizing must leave margin in every corner, so the budget reads
     worst-corner slack *)
  Engine.refresh eng;
  let swapped = ref 0 in
  List.iter
    (fun cid ->
      let a = Design.reg_attrs dsg cid in
      let cur = a.Types.lib_cell in
      let s_d = Engine.reg_d_slack eng cid in
      let s_q = Engine.reg_q_slack eng cid in
      let slack = Float.min s_d s_q in
      if Float.is_finite slack && slack > margin then begin
        let budget = slack -. margin in
        let load = worst_q_load eng dsg cid in
        let alternatives =
          List.filter
            (fun (c : Cell_lib.t) ->
              c.Cell_lib.scan = cur.Cell_lib.scan
              && c.Cell_lib.name <> cur.Cell_lib.name
              && c.Cell_lib.drive_res >= cur.Cell_lib.drive_res
              && (c.Cell_lib.drive_res -. cur.Cell_lib.drive_res) *. load
                 <= budget
              && (c.Cell_lib.clock_pin_cap < cur.Cell_lib.clock_pin_cap
                 || c.Cell_lib.area < cur.Cell_lib.area))
            (Library.cells_of lib ~func_class:cur.Cell_lib.func_class
               ~bits:cur.Cell_lib.bits)
        in
        (* weakest acceptable drive = largest delay budget spent =
           smallest area/cap *)
        let best =
          List.fold_left
            (fun acc (c : Cell_lib.t) ->
              match acc with
              | Some (b : Cell_lib.t)
                when (b.Cell_lib.area, b.Cell_lib.clock_pin_cap)
                     <= (c.Cell_lib.area, c.Cell_lib.clock_pin_cap) ->
                acc
              | Some _ | None -> Some c)
            None alternatives
        in
        match best with
        | Some c ->
          Design.retype_register dsg cid c;
          incr swapped
        | None -> ()
      end)
    cids;
  !swapped
