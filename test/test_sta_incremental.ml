(* Property: Engine.refresh after an arbitrary batch of real netlist /
   placement edits produces the same timing as throwing the engine away
   and rebuilding from scratch — bit for bit: every pin's arrival and
   required, WNS and TNS, under one corner and under three. The edit
   batches are drawn from the operations the composition flow actually
   performs — cell moves, register retypes (sizing), Compose.execute
   merges and max-width decomposition — plus raw rewiring of surviving
   pins that no flow step performs (a driver and every sink leaving a
   net, a D pin moving to another net, a comb cell removed), applied
   through the public APIs so the design and placement edit logs are
   exercised end to end. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Corner = Mbr_sta.Corner
module Compose = Mbr_core.Compose
module Decompose = Mbr_core.Decompose
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Rng = Mbr_util.Rng

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_bits_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_bits x y
  | Some _, None | None, Some _ -> false

let three_corners =
  [|
    Corner.make ~name:"fast" ~cell:0.9 ~wire:0.85 ~setup:1.0;
    Corner.make ~name:"typ" ~cell:1.0 ~wire:1.0 ~setup:1.0;
    Corner.make ~name:"slow" ~cell:1.15 ~wire:1.25 ~setup:1.05;
  |]

(* One random edit batch against the live design/placement. *)
let random_edits rng g =
  let dsg = g.G.design in
  let pl = g.G.placement in
  let lib = g.G.library in
  let core = (Placement.floorplan pl).Floorplan.core in
  let random_point () =
    Point.make
      (Rng.float_in rng core.Rect.lx core.Rect.hx)
      (Rng.float_in rng core.Rect.ly core.Rect.hy)
  in
  (* moves *)
  List.iter
    (fun r ->
      if Placement.is_placed pl r && Rng.chance rng 0.15 then
        Placement.set pl r (random_point ()))
    (Design.registers dsg);
  (* retype: swap a register for a pin-compatible sibling *)
  if Rng.chance rng 0.6 then begin
    match Design.registers dsg with
    | [] -> ()
    | regs ->
      let r = Rng.pick_list rng regs in
      let cur = (Design.reg_attrs dsg r).Types.lib_cell in
      let siblings =
        List.filter
          (fun (c : Cell_lib.t) ->
            c.Cell_lib.scan = cur.Cell_lib.scan
            && c.Cell_lib.name <> cur.Cell_lib.name)
          (Library.cells_of lib ~func_class:cur.Cell_lib.func_class
             ~bits:cur.Cell_lib.bits)
      in
      (match siblings with
      | [] -> ()
      | _ -> (
        try Design.retype_register dsg r (Rng.pick_list rng siblings)
        with Invalid_argument _ -> ()))
  end;
  (* compose: merge two same-class registers into a wider MBR *)
  if Rng.chance rng 0.7 then begin
    let placed =
      List.filter (fun r -> Placement.is_placed pl r) (Design.registers dsg)
    in
    match placed with
    | a :: _ :: _ -> (
      let ca = (Design.reg_attrs dsg a).Types.lib_cell in
      let partners =
        List.filter
          (fun r ->
            r <> a
            &&
            let c = (Design.reg_attrs dsg r).Types.lib_cell in
            c.Cell_lib.func_class = ca.Cell_lib.func_class
            && c.Cell_lib.scan = ca.Cell_lib.scan)
          placed
      in
      match partners with
      | [] -> ()
      | _ -> (
        let b = Rng.pick_list rng partners in
        let cb = (Design.reg_attrs dsg b).Types.lib_cell in
        let targets =
          List.filter
            (fun (c : Cell_lib.t) -> c.Cell_lib.scan = ca.Cell_lib.scan)
            (Library.cells_of lib ~func_class:ca.Cell_lib.func_class
               ~bits:(ca.Cell_lib.bits + cb.Cell_lib.bits))
        in
        match targets with
        | [] -> ()
        | cell :: _ -> (
          let corner = Placement.location pl a in
          try
            ignore
              (Compose.execute pl
                 { Compose.member_cids = [ a; b ]; cell; corner })
          with Invalid_argument _ -> ())))
    | [] | [ _ ] -> ()
  end;
  (* decompose: reopen max-width MBRs *)
  if Rng.chance rng 0.25 then ignore (Decompose.split_max_width pl lib);
  (* raw rewiring of surviving pins *)
  let reg_pins kind_ok =
    List.concat_map
      (fun r ->
        List.filter
          (fun pid -> kind_ok (Design.pin dsg pid).Types.p_kind)
          (Design.pins_of dsg r))
      (Design.registers dsg)
  in
  let connected pid = (Design.pin dsg pid).Types.p_net <> None in
  let is_q = function Types.Pin_q _ -> true | _ -> false in
  let is_d = function Types.Pin_d _ -> true | _ -> false in
  (* a Q pin leaves its net together with every sink, so no arc is
     left to say it ever drove one *)
  (if Rng.chance rng 0.5 then
     match List.filter connected (reg_pins is_q) with
     | [] -> ()
     | qs ->
       let q = Rng.pick_list rng qs in
       (match (Design.pin dsg q).Types.p_net with
       | Some nid -> List.iter (Design.disconnect dsg) (Design.sinks dsg nid)
       | None -> ());
       Design.disconnect dsg q);
  (* a D pin moves to another D pin's net *)
  (if Rng.chance rng 0.5 then
     let ds = reg_pins is_d in
     match List.filter connected ds with
     | [] -> ()
     | targets -> (
       let d = Rng.pick_list rng ds in
       match (Design.pin dsg (Rng.pick_list rng targets)).Types.p_net with
       | Some nid -> Design.connect dsg d nid
       | None -> ()));
  (* a comb cell is removed *)
  if Rng.chance rng 0.5 then
    match
      List.filter
        (fun cid ->
          match (Design.cell dsg cid).Types.c_kind with
          | Types.Comb _ -> true
          | _ -> false)
        (Design.live_cells dsg)
    with
    | [] -> ()
    | combs ->
      let c = Rng.pick_list rng combs in
      Design.remove_cell dsg c;
      Placement.remove pl c

let compare_engines ~fail eng fresh dsg =
  let fail fmt = Printf.ksprintf fail fmt in
  if not (same_bits (Engine.wns fresh) (Engine.wns eng)) then
    fail "wns %h (fresh) vs %h (refresh)" (Engine.wns fresh)
      (Engine.wns eng);
  if not (same_bits (Engine.tns fresh) (Engine.tns eng)) then
    fail "tns %h (fresh) vs %h (refresh)" (Engine.tns fresh)
      (Engine.tns eng);
  List.iter2
    (fun (name, w, tn) (_, w', tn') ->
      if not (same_bits w w' && same_bits tn tn') then
        fail "corner %s wns/tns %h/%h (fresh) vs %h/%h (refresh)"
          name w tn w' tn')
    (Engine.per_corner_wns_tns fresh)
    (Engine.per_corner_wns_tns eng);
  if Engine.n_endpoints fresh <> Engine.n_endpoints eng then
    fail "endpoint count %d vs %d"
      (Engine.n_endpoints fresh) (Engine.n_endpoints eng);
  if Engine.failing_endpoints fresh <> Engine.failing_endpoints eng then
    fail "failing count %d vs %d"
      (Engine.failing_endpoints fresh)
      (Engine.failing_endpoints eng);
  for pid = 0 to Design.n_pins dsg - 1 do
    if not (same_bits_opt (Engine.arrival fresh pid) (Engine.arrival eng pid))
    then fail "arrival mismatch at pin %d" pid;
    if not (same_bits_opt (Engine.required fresh pid) (Engine.required eng pid))
    then fail "required mismatch at pin %d" pid;
    for k = 0 to Engine.n_corners eng - 1 do
      if
        not
          (same_bits_opt (Engine.corner_slack fresh k pid)
             (Engine.corner_slack eng k pid))
      then fail "corner %d slack mismatch at pin %d" k pid
    done
  done

let refresh_equivalence =
  QCheck.Test.make ~name:"refresh = fresh build over random edit batches"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.tiny ~seed:(seed mod 37)) in
      let rng = Rng.create (seed * 7 + 1) in
      let corners = if seed mod 2 = 0 then Corner.default else three_corners in
      let eng = Engine.build ~config:g.G.sta_config ~corners g.G.placement in
      let rounds = 1 + Rng.int rng 3 in
      for _ = 1 to rounds do
        random_edits rng g;
        Engine.refresh eng;
        let fresh =
          Engine.build ~config:g.G.sta_config ~corners g.G.placement
        in
        compare_engines
          ~fail:(fun m -> QCheck.Test.fail_reportf "seed %d: %s" seed m)
          eng fresh g.G.design
      done;
      true)

(* A pin leaving a net loses the start/end status its connection gave
   it, even when the net carried no arc to show the connection: on
   tiny seed 3, a register Q pin leaving a net without sinks stops
   launching, and a D pin leaving a net whose driver left earlier
   stops being an endpoint (311 endpoints against 310 when status
   drifted). Both stay on the incremental path. *)
let first_reg_pin dsg ok =
  List.find
    (fun pid -> ok (Design.pin dsg pid))
    (List.concat_map (Design.pins_of dsg) (Design.registers dsg))

let check_rewired g eng =
  Engine.refresh eng;
  Alcotest.(check int) "no rebuild" 1 (Engine.full_builds eng);
  let fresh = Engine.build ~config:g.G.sta_config g.G.placement in
  compare_engines ~fail:Alcotest.fail eng fresh g.G.design

let test_q_leaves_sinkless_net () =
  let g = G.generate (P.tiny ~seed:3) in
  let dsg = g.G.design in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let q =
    first_reg_pin dsg (fun p ->
        match (p.Types.p_kind, p.Types.p_net) with
        | Types.Pin_q _, Some nid -> Design.sinks dsg nid = []
        | _ -> false)
  in
  Design.disconnect dsg q;
  check_rewired g eng;
  Alcotest.(check bool) "Q pin launches nothing" true
    (Engine.arrival eng q = None)

let test_d_leaves_undriven_net () =
  let g = G.generate (P.tiny ~seed:3) in
  let dsg = g.G.design in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let d =
    first_reg_pin dsg (fun p ->
        match (p.Types.p_kind, p.Types.p_net) with
        | Types.Pin_d _, Some nid -> Design.driver dsg nid <> None
        | _ -> false)
  in
  (match (Design.pin dsg d).Types.p_net with
  | Some nid -> Option.iter (Design.disconnect dsg) (Design.driver dsg nid)
  | None -> ());
  Engine.refresh eng;
  let n_ep = Engine.n_endpoints eng in
  Design.disconnect dsg d;
  check_rewired g eng;
  Alcotest.(check int) "one endpoint fewer" (n_ep - 1) (Engine.n_endpoints eng)

(* A move-only batch must take the incremental path, not rebuild. *)
let test_moves_stay_incremental () =
  let g = G.generate (P.tiny ~seed:5) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  let regs = Design.registers g.G.design in
  let r = List.nth regs 0 in
  let p = Placement.location g.G.placement r in
  Placement.set g.G.placement r (Point.make (p.Point.x +. 3.0) p.Point.y);
  Engine.refresh eng;
  Alcotest.(check int) "no rebuild" 1 (Engine.full_builds eng);
  Alcotest.(check int) "one refresh" 1 (Engine.refreshes eng);
  let fresh = Engine.build ~config:g.G.sta_config g.G.placement in
  Alcotest.(check bool) "wns bits equal" true
    (same_bits (Engine.wns fresh) (Engine.wns eng))

(* A small compose must also stay incremental. *)
let test_compose_stays_incremental () =
  let g = G.generate (P.tiny ~seed:11) in
  let pl = g.G.placement in
  let dsg = g.G.design in
  let lib = g.G.library in
  let eng = Engine.build ~config:g.G.sta_config pl in
  let merged =
    let placed = List.filter (fun r -> Placement.is_placed pl r) (Design.registers dsg) in
    let rec try_pairs = function
      | [] -> false
      | a :: rest -> (
        let ca = (Design.reg_attrs dsg a).Types.lib_cell in
        let partner =
          List.find_opt
            (fun b ->
              let cb = (Design.reg_attrs dsg b).Types.lib_cell in
              cb.Cell_lib.func_class = ca.Cell_lib.func_class
              && cb.Cell_lib.scan = ca.Cell_lib.scan
              && Library.cells_of lib ~func_class:ca.Cell_lib.func_class
                   ~bits:(ca.Cell_lib.bits + cb.Cell_lib.bits)
                 <> [])
            rest
        in
        match partner with
        | None -> try_pairs rest
        | Some b -> (
          let cb = (Design.reg_attrs dsg b).Types.lib_cell in
          let cell =
            List.find
              (fun (c : Cell_lib.t) -> c.Cell_lib.scan = ca.Cell_lib.scan)
              (Library.cells_of lib ~func_class:ca.Cell_lib.func_class
                 ~bits:(ca.Cell_lib.bits + cb.Cell_lib.bits))
          in
          try
            ignore
              (Compose.execute pl
                 {
                   Compose.member_cids = [ a; b ];
                   cell;
                   corner = Placement.location pl a;
                 });
            true
          with Invalid_argument _ -> try_pairs rest))
    in
    try_pairs placed
  in
  Alcotest.(check bool) "found a merge" true merged;
  Engine.refresh eng;
  Alcotest.(check int) "no rebuild" 1 (Engine.full_builds eng);
  let fresh = Engine.build ~config:g.G.sta_config pl in
  Alcotest.(check bool) "tns bits equal" true
    (same_bits (Engine.tns fresh) (Engine.tns eng))

(* Engines record the net stamps they have absorbed, so any number of
   them can read one placement: two engines over one placement refresh
   at different points of one edit sequence (a move, a D pin moved to
   another net, a retype, a register removed), and a third over a
   copy sees the shared design edits plus a move of its own. Each
   stays on the incremental path and equals a fresh build by bits. *)
let test_engines_keep_their_own_stamps () =
  let g = G.generate (P.tiny ~seed:5) in
  let dsg = g.G.design and pl = g.G.placement and lib = g.G.library in
  let build pl = Engine.build ~config:g.G.sta_config pl in
  let a = build pl and b = build pl in
  let cp = Placement.copy pl in
  let c = build cp in
  let check what eng =
    Engine.refresh eng;
    Alcotest.(check int) (what ^ ": no rebuild") 1 (Engine.full_builds eng);
    compare_engines
      ~fail:(fun m -> Alcotest.failf "%s: %s" what m)
      eng
      (build (Engine.placement eng))
      dsg
  in
  let regs = List.filter (Placement.is_placed pl) (Design.registers dsg) in
  let nudge pl r dx =
    let p = Placement.location pl r in
    Placement.set pl r (Point.make (p.Point.x +. dx) p.Point.y)
  in
  nudge pl (List.nth regs 0) 3.0;
  check "a after the move" a;
  let is_d p = match p.Types.p_kind with Types.Pin_d _ -> true | _ -> false in
  let d = first_reg_pin dsg is_d in
  let target =
    first_reg_pin dsg (fun p ->
        is_d p && p.Types.p_net <> None
        && p.Types.p_net <> (Design.pin dsg d).Types.p_net)
  in
  Design.connect dsg d (Option.get (Design.pin dsg target).Types.p_net);
  let r, cell =
    List.find_map
      (fun r ->
        let cur = (Design.reg_attrs dsg r).Types.lib_cell in
        List.find_map
          (fun (c : Cell_lib.t) ->
            if
              c.Cell_lib.scan = cur.Cell_lib.scan
              && c.Cell_lib.name <> cur.Cell_lib.name
            then Some (r, c)
            else None)
          (Library.cells_of lib ~func_class:cur.Cell_lib.func_class
             ~bits:cur.Cell_lib.bits))
      regs
    |> Option.get
  in
  Design.retype_register dsg r cell;
  check "b after the move, rewire and retype" b;
  let gone = List.nth regs 1 in
  Design.remove_cell dsg gone;
  Placement.remove pl gone;
  nudge cp (List.nth regs 2) (-4.0);
  check "a after the rewire, retype and removal" a;
  check "b after the removal" b;
  check "the copy's engine after every design edit and its own move" c

let () =
  Alcotest.run "mbr_sta.incremental"
    [
      ( "refresh",
        [
          Alcotest.test_case "moves stay incremental" `Quick
            test_moves_stay_incremental;
          Alcotest.test_case "compose stays incremental" `Quick
            test_compose_stays_incremental;
          Alcotest.test_case "Q pin leaving a sinkless net stops launching"
            `Quick test_q_leaves_sinkless_net;
          Alcotest.test_case "D pin leaving an undriven net stops capturing"
            `Quick test_d_leaves_undriven_net;
          Alcotest.test_case "engines keep their own stamps" `Quick
            test_engines_keep_their_own_stamps;
          QCheck_alcotest.to_alcotest refresh_equivalence;
        ] );
    ]
