open Types
module Vec = Mbr_util.Vec
module Cell_lib = Mbr_liberty.Cell

type edit =
  | Cell_added of cell_id
  | Cell_removed of cell_id
  | Cell_retyped of cell_id
  | Net_changed of net_id * pin_id

type t = {
  d_name : string;
  cells : cell Vec.t;
  nets : net Vec.t;
  pins : pin Vec.t;
  mutable live : int;
  edit_log : edit Vec.t;
}

let create ~name =
  {
    d_name = name;
    cells = Vec.create ();
    nets = Vec.create ();
    pins = Vec.create ();
    live = 0;
    edit_log = Vec.create ();
  }

let name t = t.d_name

let log t e = ignore (Vec.push t.edit_log e)

let revision t = Vec.length t.edit_log

let edits_since t cursor = Vec.suffix t.edit_log cursor

let cell t id = Vec.get t.cells id

let pin t id = Vec.get t.pins id

let net t id = Vec.get t.nets id

let add_net ?(is_clock = false) t n_name =
  Vec.push t.nets { n_name; n_pins = []; n_is_clock = is_clock }

let new_pin t ~cell_id ~kind ~dir ~net_id =
  let p = { p_cell = cell_id; p_kind = kind; p_dir = dir; p_net = net_id } in
  let pid = Vec.push t.pins p in
  (match net_id with
  | Some nid ->
    let n = net t nid in
    n.n_pins <- pid :: n.n_pins;
    log t (Net_changed (nid, pid))
  | None -> ());
  pid

let new_cell t ~c_name ~kind =
  let c = { c_name; c_kind = kind; c_pins = []; c_dead = false } in
  let id = Vec.push t.cells c in
  t.live <- t.live + 1;
  id

let finish_cell t id pins =
  (cell t id).c_pins <- pins;
  log t (Cell_added id)

let add_port t pname dir nid =
  let id = new_cell t ~c_name:pname ~kind:(Port dir) in
  let pdir = match dir with In_port -> Output | Out_port -> Input in
  let pid = new_pin t ~cell_id:id ~kind:Pin_port ~dir:pdir ~net_id:(Some nid) in
  finish_cell t id [ pid ];
  id

let add_clock_root t cname nid =
  let id = new_cell t ~c_name:cname ~kind:Clock_root in
  let pid = new_pin t ~cell_id:id ~kind:Pin_out ~dir:Output ~net_id:(Some nid) in
  finish_cell t id [ pid ];
  id

let add_clock_gate t cname ~enable ~ck_in ~ck_out =
  let id = new_cell t ~c_name:cname ~kind:(Clock_gate { enable }) in
  let i = new_pin t ~cell_id:id ~kind:(Pin_in 0) ~dir:Input ~net_id:(Some ck_in) in
  let o = new_pin t ~cell_id:id ~kind:Pin_out ~dir:Output ~net_id:(Some ck_out) in
  finish_cell t id [ i; o ];
  id

let add_comb t cname attrs ~inputs ~output =
  if List.length inputs <> attrs.n_inputs then
    invalid_arg "Design.add_comb: input arity mismatch";
  let id = new_cell t ~c_name:cname ~kind:(Comb attrs) in
  let ins =
    List.mapi
      (fun k nid -> new_pin t ~cell_id:id ~kind:(Pin_in k) ~dir:Input ~net_id:(Some nid))
      inputs
  in
  let o = new_pin t ~cell_id:id ~kind:Pin_out ~dir:Output ~net_id:(Some output) in
  finish_cell t id (ins @ [ o ]);
  id

type reg_conn = {
  d_nets : net_id option array;
  q_nets : net_id option array;
  clock : net_id;
  reset : net_id option;
  scan_enable : net_id option;
  scan_ins : (int * net_id) list;
  scan_outs : (int * net_id) list;
}

let simple_conn ~d ~q ~clock =
  {
    d_nets = d;
    q_nets = q;
    clock;
    reset = None;
    scan_enable = None;
    scan_ins = [];
    scan_outs = [];
  }

let add_register t rname (attrs : reg_attrs) conn =
  let bits = attrs.lib_cell.Cell_lib.bits in
  if Array.length conn.d_nets <> bits || Array.length conn.q_nets <> bits then
    invalid_arg "Design.add_register: D/Q array length must equal cell bits";
  (* Scan pins follow the library cell, not the connection spec: an
     internal-scan cell always has SI0/SO0, a per-bit-scan cell one
     SI/SO pair per bit. The spec only provides initial nets. *)
  let scan_bits =
    match attrs.lib_cell.Cell_lib.scan with
    | Cell_lib.No_scan -> []
    | Cell_lib.Internal_scan -> [ 0 ]
    | Cell_lib.Per_bit_scan -> List.init bits Fun.id
  in
  let check_scan_conn entries =
    List.iter
      (fun (i, _) ->
        if not (List.mem i scan_bits) then
          invalid_arg "Design.add_register: scan connection to a missing pin")
      entries
  in
  check_scan_conn conn.scan_ins;
  check_scan_conn conn.scan_outs;
  let id = new_cell t ~c_name:rname ~kind:(Register attrs) in
  let pins = ref [] in
  let mk kind dir net_id = pins := new_pin t ~cell_id:id ~kind ~dir ~net_id :: !pins in
  Array.iteri (fun i nid -> mk (Pin_d i) Input nid) conn.d_nets;
  Array.iteri (fun i nid -> mk (Pin_q i) Output nid) conn.q_nets;
  mk Pin_clock Input (Some conn.clock);
  (match conn.reset with Some nid -> mk Pin_reset Input (Some nid) | None -> ());
  if scan_bits <> [] then mk Pin_scan_enable Input conn.scan_enable;
  List.iter
    (fun b ->
      mk (Pin_scan_in b) Input (List.assoc_opt b conn.scan_ins);
      mk (Pin_scan_out b) Output (List.assoc_opt b conn.scan_outs))
    scan_bits;
  finish_cell t id (List.rev !pins);
  id

let n_cells t = t.live

let next_cell_id t = Vec.length t.cells

let n_nets t = Vec.length t.nets

let n_pins t = Vec.length t.pins

let live_cells t =
  let acc = ref [] in
  Vec.iteri (fun id c -> if not c.c_dead then acc := id :: !acc) t.cells;
  List.rev !acc

let registers t =
  let acc = ref [] in
  Vec.iteri
    (fun id c ->
      match c.c_kind with
      | Register _ when not c.c_dead -> acc := id :: !acc
      | Register _ | Comb _ | Clock_root | Clock_gate _ | Port _ -> ())
    t.cells;
  List.rev !acc

let reg_attrs t id =
  let c = cell t id in
  match c.c_kind with
  | Register a when not c.c_dead -> a
  | Register _ | Comb _ | Clock_root | Clock_gate _ | Port _ ->
    invalid_arg "Design.reg_attrs: not a live register"

let find_cell t cname =
  let found = ref None in
  Vec.iteri
    (fun id c ->
      if (not c.c_dead) && c.c_name = cname && !found = None then found := Some id)
    t.cells;
  !found

let pins_of t id = (cell t id).c_pins

let pin_of t id kind =
  List.find_opt (fun pid -> (pin t pid).p_kind = kind) (pins_of t id)

let driver t nid =
  List.find_opt (fun pid -> (pin t pid).p_dir = Output) (net t nid).n_pins

let sinks t nid =
  List.filter (fun pid -> (pin t pid).p_dir = Input) (net t nid).n_pins

let pin_cap t pid =
  let p = pin t pid in
  if p.p_dir = Output then 0.0
  else begin
    let c = cell t p.p_cell in
    match (c.c_kind, p.p_kind) with
    | Register a, Pin_clock -> a.lib_cell.Cell_lib.clock_pin_cap
    | Register a, Pin_d _ -> a.lib_cell.Cell_lib.data_pin_cap
    | Register a, Pin_reset -> a.lib_cell.Cell_lib.data_pin_cap *. 0.8
    | Register a, (Pin_scan_in _ | Pin_scan_enable) ->
      a.lib_cell.Cell_lib.data_pin_cap *. 0.7
    | Register _, (Pin_q _ | Pin_scan_out _ | Pin_in _ | Pin_out | Pin_port) -> 0.0
    | Comb a, Pin_in _ -> a.input_cap
    | Comb _, _ -> 0.0
    | Clock_gate _, Pin_in 0 -> 1.0
    | Clock_gate _, _ -> 0.6
    | Port Out_port, Pin_port -> 1.5
    | Port _, _ -> 0.0
    | Clock_root, _ -> 0.0
  end

let pin_drive_res t pid =
  let p = pin t pid in
  if p.p_dir <> Output then invalid_arg "Design.pin_drive_res: input pin";
  let c = cell t p.p_cell in
  match c.c_kind with
  | Register a -> a.lib_cell.Cell_lib.drive_res
  | Comb a -> a.drive_res
  | Clock_root -> 0.1
  | Clock_gate _ -> 0.5
  | Port In_port -> 0.3
  | Port Out_port -> invalid_arg "Design.pin_drive_res: output port has no driver"

let cell_area t id =
  let c = cell t id in
  match c.c_kind with
  | Register a -> a.lib_cell.Cell_lib.area
  | Comb a -> a.area
  | Clock_gate _ -> 2.5
  | Clock_root | Port _ -> 0.0

let cell_size t id =
  let c = cell t id in
  match c.c_kind with
  | Register a -> (a.lib_cell.Cell_lib.width, a.lib_cell.Cell_lib.height)
  | Comb a -> (a.g_width, a.g_height)
  | Clock_gate _ -> (2.0, 1.2)
  | Clock_root | Port _ -> (0.0, 0.0)

let total_area t =
  List.fold_left (fun acc id -> acc +. cell_area t id) 0.0 (live_cells t)

let clock_nets t =
  let acc = ref [] in
  Vec.iteri (fun id n -> if n.n_is_clock then acc := id :: !acc) t.nets;
  List.rev !acc

let connect t pid nid =
  let p = pin t pid in
  if p.p_net <> Some nid then begin
    (match p.p_net with
    | Some old ->
      let n = net t old in
      n.n_pins <- List.filter (fun q -> q <> pid) n.n_pins;
      log t (Net_changed (old, pid))
    | None -> ());
    p.p_net <- Some nid;
    let n = net t nid in
    n.n_pins <- pid :: n.n_pins;
    log t (Net_changed (nid, pid))
  end

let disconnect t pid =
  let p = pin t pid in
  match p.p_net with
  | Some old ->
    let n = net t old in
    n.n_pins <- List.filter (fun q -> q <> pid) n.n_pins;
    p.p_net <- None;
    log t (Net_changed (old, pid))
  | None -> ()

let retype_register t id (new_cell : Cell_lib.t) =
  let c = cell t id in
  match c.c_kind with
  | Register a when not c.c_dead ->
    let old = a.lib_cell in
    if
      old.Cell_lib.func_class <> new_cell.Cell_lib.func_class
      || old.Cell_lib.bits <> new_cell.Cell_lib.bits
      || old.Cell_lib.scan <> new_cell.Cell_lib.scan
    then invalid_arg "Design.retype_register: incompatible replacement cell";
    c.c_kind <- Register { a with lib_cell = new_cell };
    log t (Cell_retyped id)
  | Register _ | Comb _ | Clock_root | Clock_gate _ | Port _ ->
    invalid_arg "Design.retype_register: not a live register"

let remove_cell t id =
  let c = cell t id in
  if not c.c_dead then begin
    List.iter (fun pid -> disconnect t pid) c.c_pins;
    c.c_dead <- true;
    t.live <- t.live - 1;
    log t (Cell_removed id)
  end

let validate t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* net <-> pin back references and single driver *)
  Vec.iteri
    (fun nid n ->
      let drivers =
        List.filter (fun pid -> (pin t pid).p_dir = Output) n.n_pins
      in
      if List.length drivers > 1 then
        bad "net %s (#%d) has %d drivers" n.n_name nid (List.length drivers);
      List.iter
        (fun pid ->
          if (pin t pid).p_net <> Some nid then
            bad "net %s lists pin %d that does not point back" n.n_name pid)
        n.n_pins)
    t.nets;
  Vec.iteri
    (fun pid p ->
      match p.p_net with
      | Some nid ->
        if not (List.mem pid (net t nid).n_pins) then
          bad "pin %d points to net %d that does not list it" pid nid;
        if (cell t p.p_cell).c_dead then
          bad "dead cell %s has connected pin %d" (cell t p.p_cell).c_name pid
      | None -> ())
    t.pins;
  (* register pin sets match their library cell *)
  Vec.iteri
    (fun _ c ->
      match c.c_kind with
      | Register a when not c.c_dead ->
        let bits = a.lib_cell.Cell_lib.bits in
        let count f = List.length (List.filter f c.c_pins) in
        let nd = count (fun pid -> match (pin t pid).p_kind with Pin_d _ -> true | _ -> false) in
        let nq = count (fun pid -> match (pin t pid).p_kind with Pin_q _ -> true | _ -> false) in
        if nd <> bits || nq <> bits then
          bad "register %s has %d D / %d Q pins for a %d-bit cell" c.c_name nd nq bits
      | Register _ | Comb _ | Clock_root | Clock_gate _ | Port _ -> ())
    t.cells;
  List.rev !problems
