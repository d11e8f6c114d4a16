module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell

type config = {
  clock_period : float;
  wire_res : float;
  wire_cap : float;
  input_delay : float;
  output_delay : float;
}

let default_config =
  {
    clock_period = 800.0;
    wire_res = 0.002;
    wire_cap = 0.2;
    input_delay = 40.0;
    output_delay = 40.0;
  }

(* Arrival/required storage: one flat [Bigarray] float64 plane per
   corner, indexed by pin id. Unboxed end to end — the propagation
   inner loops and the worst-corner folds read and write raw doubles,
   never a boxed [float array array] cell — and a plane is a single
   malloc'd block outside the OCaml heap, so 100k-register planes
   neither fragment the major heap nor add GC scan work. *)
type plane =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let plane_make n v : plane =
  let p = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max n 0) in
  Bigarray.Array1.fill p v;
  p

(* All plane indices come from the engine's own graph arrays (or are
   bounds-checked by the accessor), so the hot paths skip the per-read
   bounds test. *)
let pget : plane -> int -> float = Bigarray.Array1.unsafe_get

let pset : plane -> int -> float -> unit = Bigarray.Array1.unsafe_set

(* A growable int buffer for changed-pin collection: [int array] backed
   (unboxed), unlike a list whose cons cells would churn the minor heap
   once per changed pin. *)
type ivec = { mutable iv_a : int array; mutable iv_len : int }

let ivec_create () = { iv_a = Array.make 64 0; iv_len = 0 }

let ivec_push v x =
  if v.iv_len = Array.length v.iv_a then begin
    let b = Array.make (2 * v.iv_len) 0 in
    Array.blit v.iv_a 0 b 0 v.iv_len;
    v.iv_a <- b
  end;
  v.iv_a.(v.iv_len) <- x;
  v.iv_len <- v.iv_len + 1

(* The propagation plan and the scans' scratch; see the plan section
   below. *)
type plan_scratch = {
  ps_mark : int array;  (* per-pin epoch stamp: to recompute this pass *)
  ps_tmp : float array;  (* per-corner recompute scratch *)
  mutable ps_epoch : int;
}

type plan = {
  pl_nc : int;
  (* CSR adjacency with the per-corner derated delays flattened
     alongside (entry-major: pred entry [j]'s corner-[k] delay sits at
     [j * nc + k]) — the propagation loops stream flat int/float
     arrays instead of chasing adjacency-list cons cells; each
     direction streams its own delay image sequentially. The succ side
     is the transpose of the pred side (a pin's succ entries in
     ascending destination order). *)
  pr_off : int array;
  pr_src : int array;
  pr_delay : float array;
  su_off : int array;
  su_dst : int array;
  su_delay : float array;
  (* The start/endpoint table, the engine's only record of which pins
     launch and capture: [st_slot]/[ep_slot] map a pin to its slot (-1
     for none), [st_pin]/[ep_pin] a slot back to its pin, with slots in
     ascending pin order. Startpoint launch = skew(st_cell) + st_base
     (st_base alone for skewless startpoints); endpoint required =
     (clock_period + skew(ep_cell)) - ep_term (period - ep_term when
     skewless). [st_cell]/[ep_cell] name the register behind a Q/D pin
     (-1 for ports). [st_slot]'s length is the pin count the plan
     covers. *)
  st_slot : int array;
  st_pin : int array;
  st_cell : int array;
  st_base : float array;
  ep_slot : int array;
  ep_pin : int array;
  ep_cell : int array;
  ep_term : float array;
  pl_scratch : plan_scratch;
}

type t = {
  cfg : config;
  pl : Placement.t;
  dsg : Design.t;
  mutable corners : Corner.t array;
  mutable n : int; (* pin count covered by the arrays below *)
  mutable role : Bytes.t;
      (* per pin, its [pin_role]: fixed while the pin's cell lives,
         '\000' (outside the graph) once the cell is removed. Tells a
         register's Q and D pins apart without a design lookup. *)
  mutable topo : Types.pin_id array;
  mutable topo_pos : int array;
      (** pin -> index in [topo] (-1 outside graph) *)
  mutable skew_dense : float array;
      (* useful skew per cell id (0.0 = unset, the default), grown on
         demand: the propagation passes read a skew per start/endpoint
         per pass *)
  mutable arrival : plane;
      (* corner-interleaved: one flat float64 plane indexed
         [pid * nc + k], so all corners of a pin share a cache line and
         a pred/succ read costs one miss regardless of the corner
         count. Reachability is structural: a pin has a finite arrival
         in one corner iff it does in every corner. *)
  mutable required : plane;
  mutable plan : plan option;
      (* the only stored copy of the graph's arcs, current whenever
         present outside a refresh: [analyze] and [rebuild] drop it,
         and [refresh] reads the rewired pins' old arcs off it, then
         patches it before returning *)
  mutable plan_dirty : Bytes.t;
      (* per pin, 1 when the pin's incoming arcs, start/endpoint status,
         launch base or setup term may differ from what [plan] holds:
         every pin the running refresh's splice touched, pins that left
         or joined the graph included. The refresh seeds both scans
         with the flagged in-graph pins, and its plan patch re-derives
         exactly the flagged pins and clears the flags. *)
  mutable n_plan_builds : int;
  mutable n_plan_patches : int;
  plan_srcs : ivec;
      (* a plan make's dirty-pin arc sources, in pin order: the count
         pass records them, the fill pass reads them back *)
  mutable reg_cache : (int * Types.cell_id array * int array) option;
      (* design revision, registers in [Design.registers] order, dense
         cell-id -> slot map (-1 for non-registers) *)
  mutable analyzed : bool;
      (* false only after a rebuild whose walk raised: the planes may
         be sized for an unfinished graph, so queries and skew updates
         [ensure] first, which retries the rebuild and raises again
         while the cycle stands. An analyzed engine holds a plan. *)
  mutable dsg_cursor : int;  (** design edits already reflected *)
  mutable pl_cursor : int;  (** placement revision already reflected *)
  mutable net_seen : int array;
      (* per net id, its [Placement.net_stamp] as of the last analysis
         or refresh (-1 past the end): a net whose stamp moved since
         has new pins, pin locations or pin caps *)
  mutable n_full_builds : int;
  mutable n_refreshes : int;
  (* Memos for deriving arcs, one epoch per plan make or graph walk
     (design and placement are frozen for its duration). [pg_stamp] is
     [pg_epoch] when the pin is placed (location and cap resolved),
     [-pg_epoch] when it is not, so a net driver with fanout f is
     resolved once instead of once per arc; [nd_stamp] is [pg_epoch]
     when [nd_pin] holds the net's in-graph data driver (-1 for none),
     so a net's sinks do not each scan its pin list for it. *)
  mutable pg_epoch : int;
  mutable pg_x : float array;
  mutable pg_y : float array;
  mutable pg_cap : float array;
  mutable pg_stamp : int array;
  mutable nd_stamp : int array;
  mutable nd_pin : int array;
}

exception Combinational_cycle of Types.pin_id list

let () =
  Printexc.register_printer (function
    | Combinational_cycle pins ->
      Some
        (Printf.sprintf "Sta.Combinational_cycle (%d pins): %s"
           (max 0 (List.length pins - 1))
           (String.concat " -> " (List.map string_of_int pins)))
    | _ -> None)

let cycle_to_string dsg pins =
  String.concat " -> "
    (List.map
       (fun pid ->
         let p = Design.pin dsg pid in
         let c = Design.cell dsg p.Types.p_cell in
         Printf.sprintf "%s/%s" c.Types.c_name
           (Types.pin_kind_to_string p.Types.p_kind))
       pins)

let config t = t.cfg

let placement t = t.pl

let corners t = t.corners

let n_corners t = Array.length t.corners

let set_skew t id s =
  if id >= Array.length t.skew_dense then begin
    let b = Array.make (max (id + 1) (2 * Array.length t.skew_dense)) 0.0 in
    Array.blit t.skew_dense 0 b 0 (Array.length t.skew_dense);
    t.skew_dense <- b
  end;
  t.skew_dense.(id) <- s

let skew t id =
  if id >= 0 && id < Array.length t.skew_dense then
    Array.unsafe_get t.skew_dense id
  else 0.0

let skew_assignments t =
  let acc = ref [] in
  for cid = Array.length t.skew_dense - 1 downto 0 do
    let s = t.skew_dense.(cid) in
    if s <> 0.0 then acc := (cid, s) :: !acc
  done;
  !acc

(* The data graph excludes clock distribution and scan pins. A pin's
   role: '\000' outside the data graph, 'q' / 'd' for a register's Q /
   D pin, 'o' for a comb output, '\001' for any other data pin. The
   arcs into a comb output are exactly its cell's input->output arcs;
   every other pin's incoming arcs are net arcs. *)
let pin_role dsg pid =
  let p = Design.pin dsg pid in
  let c = Design.cell dsg p.Types.p_cell in
  if c.Types.c_dead then '\000'
  else
    match (c.Types.c_kind, p.Types.p_kind) with
    | Types.Register _, Types.Pin_q _ -> 'q'
    | Types.Register _, Types.Pin_d _ -> 'd'
    | Types.Register _, _ -> '\000'
    | Types.Comb _, Types.Pin_in _ -> '\001'
    | Types.Comb _, Types.Pin_out -> 'o'
    | Types.Comb _, _ -> '\000'
    | Types.Port _, Types.Pin_port -> '\001'
    | Types.Port _, _ -> '\000'
    | (Types.Clock_root | Types.Clock_gate _), _ -> '\000'

let in_graph t pid = Bytes.unsafe_get t.role pid <> '\000'

(* An in-graph pin's start/endpoint status under the current
   connectivity: 's' for a startpoint (an input port, or a connected
   register Q pin), 'e' for an endpoint (an output port or register D
   pin with a net), '\000' for neither. It changes only when the pin
   joins or leaves a net, or its cell joins or leaves the graph. *)
let pin_status dsg pid =
  let p = Design.pin dsg pid in
  match ((Design.cell dsg p.Types.p_cell).Types.c_kind, p.Types.p_kind) with
  | Types.Port Types.In_port, _ -> 's'
  | Types.Register _, Types.Pin_q _ when p.Types.p_net <> None -> 's'
  | Types.Register _, Types.Pin_d _ when p.Types.p_net <> None -> 'e'
  | Types.Port Types.Out_port, _ when p.Types.p_net <> None -> 'e'
  | _, _ -> '\000'

(* ---- arcs, derived from the design ----

   The plan's CSR is the only stored copy of the arcs: a plan make (for
   its dirty pins) and a full build's graph walk derive a pin's
   incoming arcs from [Design] under the current roles. *)

(* Open a memo epoch over the current pin and net counts. *)
let open_memo t =
  t.pg_epoch <- t.pg_epoch + 1;
  let n = t.n in
  if Array.length t.pg_stamp < n then begin
    t.pg_x <- Array.make n 0.0;
    t.pg_y <- Array.make n 0.0;
    t.pg_cap <- Array.make n 0.0;
    t.pg_stamp <- Array.make n 0
  end;
  let nn = Design.n_nets t.dsg in
  if Array.length t.nd_stamp < nn then begin
    t.nd_stamp <- Array.make nn 0;
    t.nd_pin <- Array.make nn (-1)
  end

(* A data net's in-graph driver, or -1: clock nets and nets without an
   in-graph driver carry no arcs. Resolved at most once per epoch. *)
let net_driver t nid =
  if Array.unsafe_get t.nd_stamp nid = t.pg_epoch then
    Array.unsafe_get t.nd_pin nid
  else begin
    let d =
      if (Design.net t.dsg nid).Types.n_is_clock then -1
      else
        match Design.driver t.dsg nid with
        | Some d when Bytes.get t.role d <> '\000' -> d
        | Some _ | None -> -1
    in
    t.nd_stamp.(nid) <- t.pg_epoch;
    t.nd_pin.(nid) <- d;
    d
  end

(* The source of every arc into [pid]: its cell's in-graph inputs for
   a comb output, its data net's driver for any other in-graph input
   pin (none for outputs and pins outside the graph). A net arc needs
   an open memo epoch. *)
let iter_in_arcs t pid f =
  match Bytes.unsafe_get t.role pid with
  | '\000' -> ()
  | 'o' ->
    List.iter
      (fun i -> if Bytes.unsafe_get t.role i = '\001' then f i)
      (Design.pins_of t.dsg (Design.pin t.dsg pid).Types.p_cell)
  | _ -> (
    let p = Design.pin t.dsg pid in
    match p.Types.p_net with
    | Some nid when p.Types.p_dir = Types.Input ->
      let d = net_driver t nid in
      if d >= 0 then f d
    | Some _ | None -> ())

(* (Re)build the graph from the design, straight into [t]: roles and
   the topological order; fresh planes, no plan (start/endpoint status
   comes with the plan). The order is one depth-first walk over
   incoming arcs (a pin is appended once all its sources are), with
   [topo_pos] as the walk state: -1 unvisited, -2 on the open path,
   else its index. Meeting an open pin closes a loop, and the open
   path is the {!Combinational_cycle} witness. Until the walk succeeds the engine
   stays unanalyzed and behind the design, so every later [analyze]
   retries it. *)
let compute_graph t =
  let dsg = t.dsg in
  let n = Design.n_pins dsg in
  t.plan <- None;
  t.analyzed <- false;
  t.n <- n;
  t.role <- Bytes.init n (pin_role dsg);
  open_memo t;
  let topo = Array.make n 0 and k = ref 0 in
  let pos = Array.make n (-1) in
  t.topo_pos <- pos;
  let rec visit path pid =
    match pos.(pid) with
    | -1 ->
      pos.(pid) <- -2;
      let path = pid :: path in
      iter_in_arcs t pid (visit path);
      pos.(pid) <- !k;
      topo.(!k) <- pid;
      incr k
    | -2 ->
      (* [path] runs from the pin [pid] feeds back to the walk's root;
         the loop is its prefix up to [pid] *)
      let rec upto = function p :: tl when p <> pid -> p :: upto tl | _ -> [ pid ] in
      raise (Combinational_cycle (pid :: upto path))
    | _ -> ()
  in
  for pid = 0 to n - 1 do
    if in_graph t pid then visit [] pid
  done;
  t.topo <- Array.sub topo 0 !k;
  let nc = Array.length t.corners in
  t.arrival <- plane_make (n * nc) neg_infinity;
  t.required <- plane_make (n * nc) infinity;
  t.plan_dirty <- Bytes.make n '\000';
  t.dsg_cursor <- Design.revision dsg

(* Packed register index, cached per design revision: the registers in
   [Design.registers] order plus a dense cell-id -> slot map. Shared by
   the skew optimizer and the touched-register reporting so neither
   re-hashes ~100k registers per call. Both arrays are read-only to
   callers. *)
let register_index t =
  let rev = Design.revision t.dsg in
  match t.reg_cache with
  | Some (r, regs, slot) when r = rev -> (regs, slot)
  | _ ->
    let regs = Array.of_list (Design.registers t.dsg) in
    (* cell ids are Vec indices, not bounded by the live-cell count *)
    let bound = Array.fold_left (fun acc cid -> max acc (cid + 1)) 1 regs in
    let slot = Array.make bound (-1) in
    Array.iteri (fun i cid -> slot.(cid) <- i) regs;
    t.reg_cache <- Some (rev, regs, slot);
    (regs, slot)

(* A net's load: its sink pin caps plus the HPWL wire cap. *)
let net_load t nid =
  let dsg = t.dsg in
  let pin_caps =
    List.fold_left
      (fun acc s -> acc +. Design.pin_cap dsg s)
      0.0 (Design.sinks dsg nid)
  in
  let wire_len =
    match Placement.net_box t.pl nid with
    | Some box -> Mbr_geom.Rect.half_perimeter box
    | None -> 0.0
  in
  pin_caps +. (t.cfg.wire_cap *. wire_len)

(* ---- propagation plan ----

   A CSR image of the graph with per-corner arc delays flattened
   alongside, and per-startpoint/endpoint launch/required constants.
   The plan is a pure function of (structure, placement, corners), the
   only graph the numeric propagation reads ([analyze], refresh's
   repair and every skew batch run the mark-skip scans below over it)
   and the only place the engine stores arcs.

   Lifecycle: [make_plan] is the one builder. It re-derives the pins
   the engine's [plan_dirty] flags name and copies every other pin's
   entries from the previous plan; with no previous plan (dropped by
   [analyze], which [build] and [set_corners] run, or by [rebuild])
   every pin counts as dirty and the same code is a from-scratch
   build. A refresh never rebuilds the plan: its splice flags the pins
   whose incoming arcs, launch base or setup term it touched (plus
   pins that left or joined the graph), and it patches them in before
   it propagates. *)

(* Stand-in for "no previous plan": it covers zero pins, so every pin
   of the next [make_plan] is dirty. *)
let no_plan =
  {
    pl_nc = 0;
    pr_off = [| 0 |];
    pr_src = [||];
    pr_delay = [||];
    su_off = [| 0 |];
    su_dst = [||];
    su_delay = [||];
    st_slot = [||];
    st_pin = [||];
    st_cell = [||];
    st_base = [||];
    ep_slot = [||];
    ep_pin = [||];
    ep_cell = [||];
    ep_term = [||];
    pl_scratch = { ps_mark = [||]; ps_tmp = [||]; ps_epoch = 0 };
  }

let m_plan_builds = Mbr_obs.Metrics.counter "sta.plan.builds"

let m_plan_patches = Mbr_obs.Metrics.counter "sta.plan.patches"

(* The pin geometry behind a net arc's wire delay, resolved at most
   once per plan: true (and [pg_x]/[pg_y]/[pg_cap] filled) when the
   pin's cell is placed. *)
let pin_geometry t pid =
  let ep = t.pg_epoch in
  let st = Array.unsafe_get t.pg_stamp pid in
  if st = ep then true
  else if st = -ep then false
  else begin
    let pn = Design.pin t.dsg pid in
    match Placement.location_opt t.pl pn.Types.p_cell with
    | Some _ ->
      let l = Placement.pin_location t.pl pid in
      t.pg_x.(pid) <- l.Point.x;
      t.pg_y.(pid) <- l.Point.y;
      t.pg_cap.(pid) <- Design.pin_cap t.dsg pid;
      t.pg_stamp.(pid) <- ep;
      true
    | None ->
      t.pg_stamp.(pid) <- -ep;
      false
  end

(* The comb output [pid]'s cell delay before derating: intrinsic +
   drive into its output load, shared by every cell arc into it. *)
let comb_base t pid =
  let pn = Design.pin t.dsg pid in
  let c = Design.cell t.dsg pn.Types.p_cell in
  match c.Types.c_kind with
  | Types.Comb a ->
    let load =
      match pn.Types.p_net with Some nid -> net_load t nid | None -> 0.0
    in
    a.Types.intrinsic +. (a.Types.drive_res *. load)
  | Types.Register _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
    0.0

(* Make the plan for the current graph, placement and corners, and
   install it: patch the previous plan when there is one, build from
   scratch otherwise. A dirty pin — flagged in [plan_dirty], or beyond
   the previous plan's pin range — gets its incoming arcs derived from
   the design with their delays computed, and its launch base / setup
   term recomputed; a clean pin's entries are copied (runs of
   consecutive clean pins in one blit each). The succ CSR is the pred
   CSR's transpose, built on int arrays only. Clears the dirty flags.
   Each net's load is computed at most once: only its single driver's
   cell arcs or launch read it. *)
let make_plan t =
  let nc = Array.length t.corners in
  let n = t.n in
  let o = match t.plan with Some o -> o | None -> no_plan in
  let full = o == no_plan in
  Mbr_obs.Trace.with_span
    ~name:(if full then "sta.plan.build" else "sta.plan.patch")
    ~args:[ ("n_pins", Mbr_obs.Trace.Int n) ]
  @@ fun () ->
  if full then begin
    t.n_plan_builds <- t.n_plan_builds + 1;
    Mbr_obs.Metrics.incr m_plan_builds
  end
  else begin
    t.n_plan_patches <- t.n_plan_patches + 1;
    Mbr_obs.Metrics.incr m_plan_patches
  end;
  open_memo t;
  let on = Array.length o.st_slot in
  let flags = t.plan_dirty in
  let dirty pid = pid >= on || Bytes.unsafe_get flags pid <> '\000' in
  (* pred CSR: a dirty pin's arcs are derived once, their sources
     recorded in [srcs] for the fill pass *)
  let srcs = t.plan_srcs in
  srcs.iv_len <- 0;
  let pr_off = Array.make (n + 1) 0 in
  for pid = 0 to n - 1 do
    let len =
      if dirty pid then begin
        let before = srcs.iv_len in
        iter_in_arcs t pid (ivec_push srcs);
        srcs.iv_len - before
      end
      else o.pr_off.(pid + 1) - o.pr_off.(pid)
    in
    pr_off.(pid + 1) <- pr_off.(pid) + len
  done;
  let ne = pr_off.(n) in
  let pr_src = Array.make (max ne 1) 0 in
  let pr_delay = Array.make (max (ne * nc) 1) 0.0 in
  (* copy the old entries of clean pins [p0, p1) *)
  let copy_run p0 p1 =
    let oj = o.pr_off.(p0) and len = o.pr_off.(p1) - o.pr_off.(p0) in
    if len > 0 then begin
      let j = pr_off.(p0) in
      Array.blit o.pr_src oj pr_src j len;
      Array.blit o.pr_delay (oj * nc) pr_delay (j * nc) (len * nc)
    end
  in
  let cfg = t.cfg in
  let run = ref (-1) in
  let next_src = ref 0 in
  for pid = 0 to n - 1 do
    if not (dirty pid) then begin
      if !run < 0 then run := pid
    end
    else begin
      if !run >= 0 then begin
        copy_run !run pid;
        run := -1
      end;
      if pr_off.(pid + 1) > pr_off.(pid) then begin
        (* cell arcs share one base, cell-derated; a net arc gets the
           model's wire delay r·L·(c·L/2 + C_sink) off the geometry
           memo, wire-derated *)
        let cell = Bytes.unsafe_get t.role pid = 'o' in
        let cell_base = if cell then comb_base t pid else 0.0 in
        for j = pr_off.(pid) to pr_off.(pid + 1) - 1 do
          let s = srcs.iv_a.(!next_src) in
          incr next_src;
          pr_src.(j) <- s;
          if cell then
            for k = 0 to nc - 1 do
              pr_delay.((j * nc) + k) <- cell_base *. t.corners.(k).Corner.cell
            done
          else begin
            let base =
              if pin_geometry t s && pin_geometry t pid then begin
                let len =
                  Float.abs (t.pg_x.(s) -. t.pg_x.(pid))
                  +. Float.abs (t.pg_y.(s) -. t.pg_y.(pid))
                in
                cfg.wire_res *. len
                *. ((cfg.wire_cap *. len /. 2.0) +. t.pg_cap.(pid))
              end
              else 0.0
            in
            for k = 0 to nc - 1 do
              pr_delay.((j * nc) + k) <- base *. t.corners.(k).Corner.wire
            done
          end
        done
      end
    end
  done;
  if !run >= 0 then copy_run !run n;
  (* succ CSR: the transpose, streamed off the pred CSR *)
  let su_off = Array.make (n + 1) 0 in
  for j = 0 to ne - 1 do
    let s = pr_src.(j) + 1 in
    su_off.(s) <- su_off.(s) + 1
  done;
  for pid = 0 to n - 1 do
    su_off.(pid + 1) <- su_off.(pid + 1) + su_off.(pid)
  done;
  let su_dst = Array.make (max ne 1) 0 in
  let su_delay = Array.make (max (ne * nc) 1) 0.0 in
  let fill = Array.sub su_off 0 (max n 1) in
  for pid = 0 to n - 1 do
    for j = pr_off.(pid) to pr_off.(pid + 1) - 1 do
      let s = pr_src.(j) in
      let q = fill.(s) in
      fill.(s) <- q + 1;
      su_dst.(q) <- pid;
      for k = 0 to nc - 1 do
        su_delay.((q * nc) + k) <- pr_delay.((j * nc) + k)
      done
    done
  done;
  (* start/endpoint tables: a dirty pin's status follows its current
     connectivity, a clean pin keeps its old slot's, and slots run in
     ascending pin order, so a patched plan lists them as a fresh one
     does and TNS (a float sum over the endpoints) keeps its bits *)
  let st_slot = Array.make n (-1) and ep_slot = Array.make n (-1) in
  let n_st = ref 0 and n_ep = ref 0 in
  for pid = 0 to n - 1 do
    let status =
      if not (dirty pid) then
        if o.st_slot.(pid) >= 0 then 's'
        else if o.ep_slot.(pid) >= 0 then 'e'
        else '\000'
      else if in_graph t pid then pin_status t.dsg pid
      else '\000'
    in
    if status = 's' then begin
      st_slot.(pid) <- !n_st;
      incr n_st
    end
    else if status = 'e' then begin
      ep_slot.(pid) <- !n_ep;
      incr n_ep
    end
  done;
  let st_pin = Array.make !n_st 0 and ep_pin = Array.make !n_ep 0 in
  let st_cell = Array.make (max !n_st 1) (-1) in
  let st_base = Array.make (max (!n_st * nc) 1) 0.0 in
  let ep_cell = Array.make (max !n_ep 1) (-1) in
  let ep_term = Array.make (max (!n_ep * nc) 1) 0.0 in
  (* a clean pin's row is copied from its old slot; a dirty one's launch
     base (clk->q into the Q pin's load, or the input delay) and setup
     term (the register's setup, or the output delay) are derived *)
  for pid = 0 to n - 1 do
    let i = st_slot.(pid) in
    if i >= 0 then begin
      st_pin.(i) <- pid;
      if not (dirty pid) then begin
        let oi = o.st_slot.(pid) in
        st_cell.(i) <- o.st_cell.(oi);
        Array.blit o.st_base (oi * nc) st_base (i * nc) nc
      end
      else begin
        let pn = Design.pin t.dsg pid in
        match (Design.cell t.dsg pn.Types.p_cell).Types.c_kind with
        | Types.Register a ->
          st_cell.(i) <- pn.Types.p_cell;
          let load =
            match pn.Types.p_net with
            | Some nid -> net_load t nid
            | None -> 0.0
          in
          let cq = Cell_lib.clk_to_q a.Types.lib_cell ~load in
          for k = 0 to nc - 1 do
            st_base.((i * nc) + k) <- cq *. t.corners.(k).Corner.cell
          done
        | Types.Comb _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
          Array.fill st_base (i * nc) nc cfg.input_delay
      end
    end;
    let i = ep_slot.(pid) in
    if i >= 0 then begin
      ep_pin.(i) <- pid;
      if not (dirty pid) then begin
        let oi = o.ep_slot.(pid) in
        ep_cell.(i) <- o.ep_cell.(oi);
        Array.blit o.ep_term (oi * nc) ep_term (i * nc) nc
      end
      else begin
        let cid = (Design.pin t.dsg pid).Types.p_cell in
        match (Design.cell t.dsg cid).Types.c_kind with
        | Types.Register a ->
          ep_cell.(i) <- cid;
          let setup = a.Types.lib_cell.Cell_lib.setup in
          for k = 0 to nc - 1 do
            ep_term.((i * nc) + k) <- setup *. t.corners.(k).Corner.setup
          done
        | Types.Comb _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
          Array.fill ep_term (i * nc) nc cfg.output_delay
      end
    end
  done;
  Bytes.fill flags 0 (Bytes.length flags) '\000';
  let p =
    {
      pl_nc = nc;
      pr_off;
      pr_src;
      pr_delay;
      su_off;
      su_dst;
      su_delay;
      st_slot;
      st_pin;
      st_cell;
      st_base;
      ep_slot;
      ep_pin;
      ep_cell;
      ep_term;
      pl_scratch =
        {
          ps_mark = Array.make (max n 1) 0;
          ps_tmp = Array.make (max nc 1) 0.0;
          ps_epoch = 0;
        };
    }
  in
  t.plan <- Some p;
  p


(* Mark-skip scans, the engine's one propagation shape: stream the
   whole topo order (reversed for requireds) and recompute a pin only
   when it is a seed or one of its predecessors (successors) actually
   moved — one epoch-stamped mark per pin, so the CSR walk stays
   sequential and a quiet pin costs one array read. A recomputed pin
   takes the max (min) over its final predecessors (successors) and
   its launch (required) term. Skipping is sound because an unmarked
   pin would recompute to its stored value bit for bit (same final
   neighbours, same delays), so the planes AND the changed-pin set are
   those of recomputing every pin. The cancel token, when given, is
   polled every 4096 pins, but a scan always runs to completion (a
   batch is atomic; callers like [Skew.optimize] act on the token at
   their own sweep boundary), so a cancelled batch leaves exactly the
   planes an uncancelled one would. Returns the recomputed-pin
   count. *)
let forward_scan t p ~seeds ~changed ~cancel =
  let nc = p.pl_nc in
  let scr = p.pl_scratch in
  scr.ps_epoch <- scr.ps_epoch + 1;
  let epoch = scr.ps_epoch in
  let mark = scr.ps_mark in
  List.iter
    (fun pid -> if t.topo_pos.(pid) >= 0 then Array.unsafe_set mark pid epoch)
    seeds;
  let tmp = scr.ps_tmp in
  let arr = t.arrival in
  let topo = t.topo in
  let m = Array.length topo in
  let processed = ref 0 in
  for i = 0 to m - 1 do
    (match cancel with
    | Some c when i land 4095 = 0 -> ignore (Mbr_util.Cancel.check c)
    | Some _ | None -> ());
    let q = Array.unsafe_get topo i in
    if Array.unsafe_get mark q = epoch then begin
      incr processed;
      let sl = Array.unsafe_get p.st_slot q in
      if sl >= 0 then begin
        let cid = Array.unsafe_get p.st_cell sl in
        if cid >= 0 then begin
          let sk = skew t cid in
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (sk +. Array.unsafe_get p.st_base ((sl * nc) + k))
          done
        end
        else
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (Array.unsafe_get p.st_base ((sl * nc) + k))
          done
      end
      else
        for k = 0 to nc - 1 do
          Array.unsafe_set tmp k neg_infinity
        done;
      for j = Array.unsafe_get p.pr_off q to Array.unsafe_get p.pr_off (q + 1) - 1 do
        let sb = Array.unsafe_get p.pr_src j * nc in
        let b = j * nc in
        for k = 0 to nc - 1 do
          let a =
            pget arr (sb + k) +. Array.unsafe_get p.pr_delay (b + k)
          in
          if a > Array.unsafe_get tmp k then Array.unsafe_set tmp k a
        done
      done;
      let moved = ref false in
      let qb = q * nc in
      for k = 0 to nc - 1 do
        let v = Array.unsafe_get tmp k in
        if v <> pget arr (qb + k) then begin
          moved := true;
          pset arr (qb + k) v
        end
      done;
      if !moved then begin
        (match changed with Some v -> ivec_push v q | None -> ());
        for j = Array.unsafe_get p.su_off q to Array.unsafe_get p.su_off (q + 1) - 1 do
          Array.unsafe_set mark (Array.unsafe_get p.su_dst j) epoch
        done
      end
    end
  done;
  !processed

let backward_scan t p ~seeds ~changed ~cancel =
  let nc = p.pl_nc in
  let scr = p.pl_scratch in
  scr.ps_epoch <- scr.ps_epoch + 1;
  let epoch = scr.ps_epoch in
  let mark = scr.ps_mark in
  List.iter
    (fun pid -> if t.topo_pos.(pid) >= 0 then Array.unsafe_set mark pid epoch)
    seeds;
  let tmp = scr.ps_tmp in
  let req = t.required in
  let period = t.cfg.clock_period in
  let topo = t.topo in
  let m = Array.length topo in
  let processed = ref 0 in
  for i = m - 1 downto 0 do
    (match cancel with
    | Some c when i land 4095 = 0 -> ignore (Mbr_util.Cancel.check c)
    | Some _ | None -> ());
    let q = Array.unsafe_get topo i in
    if Array.unsafe_get mark q = epoch then begin
      incr processed;
      let sl = Array.unsafe_get p.ep_slot q in
      if sl >= 0 then begin
        let cid = Array.unsafe_get p.ep_cell sl in
        if cid >= 0 then begin
          let sk = skew t cid in
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (period +. sk -. Array.unsafe_get p.ep_term ((sl * nc) + k))
          done
        end
        else
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (period -. Array.unsafe_get p.ep_term ((sl * nc) + k))
          done
      end
      else
        for k = 0 to nc - 1 do
          Array.unsafe_set tmp k infinity
        done;
      for j = Array.unsafe_get p.su_off q to Array.unsafe_get p.su_off (q + 1) - 1 do
        let db = Array.unsafe_get p.su_dst j * nc in
        let b = j * nc in
        for k = 0 to nc - 1 do
          let r =
            pget req (db + k) -. Array.unsafe_get p.su_delay (b + k)
          in
          if r < Array.unsafe_get tmp k then Array.unsafe_set tmp k r
        done
      done;
      let moved = ref false in
      let qb = q * nc in
      for k = 0 to nc - 1 do
        let v = Array.unsafe_get tmp k in
        if v <> pget req (qb + k) then begin
          moved := true;
          pset req (qb + k) v
        end
      done;
      if !moved then begin
        (match changed with Some v -> ivec_push v q | None -> ());
        for j = Array.unsafe_get p.pr_off q to Array.unsafe_get p.pr_off (q + 1) - 1 do
          Array.unsafe_set mark (Array.unsafe_get p.pr_src j) epoch
        done
      end
    end
  done;
  !processed


(* Telemetry: the incremental engine's health is "how often does
   refresh stay incremental, and how much does it touch when it does".
   [sta.dirty_pins] accumulates the seed set of each incremental
   splice; [sta.rebuild_fallbacks] counts Bail escapes to the O(n)
   path. [sta.corners] accumulates the corner count of every engine
   build / corner-set swap. All no-ops while [Mbr_obs] is disabled. *)
let m_refreshes = Mbr_obs.Metrics.counter "sta.refreshes"

let m_rebuild_fallbacks = Mbr_obs.Metrics.counter "sta.rebuild_fallbacks"

let m_dirty_pins = Mbr_obs.Metrics.counter "sta.dirty_pins"

(* A full numeric pass: a fresh plan recomputes every delay against
   the current placement (pending moves are absorbed, and every net's
   stamp is recorded as seen), the planes are reset, and the scans
   seeded with every startpoint and endpoint recompute every
   arrival/required. A pin outside every startpoint (endpoint) cone
   keeps -inf (+inf), which is what recomputing it would give. Pending
   structural design edits are absorbed first, by a {!rebuild}: a plan
   derives its arcs from the design, so it must never read
   connectivity the graph has not seen. *)
let rec analyze t =
  if Design.revision t.dsg <> t.dsg_cursor then rebuild t
  else
    Mbr_obs.Trace.with_span ~name:"sta.analyze"
      ~args:[ ("n_pins", Mbr_obs.Trace.Int t.n) ]
    @@ fun () ->
    t.plan <- None;
    let p = make_plan t in
    Bigarray.Array1.fill t.arrival neg_infinity;
    Bigarray.Array1.fill t.required infinity;
    ignore
      (forward_scan t p ~seeds:(Array.to_list p.st_pin) ~changed:None
         ~cancel:None);
    ignore
      (backward_scan t p ~seeds:(Array.to_list p.ep_pin) ~changed:None
         ~cancel:None);
    t.pl_cursor <- Placement.revision t.pl;
    t.net_seen <- Array.init (Design.n_nets t.dsg) (Placement.net_stamp t.pl);
    t.analyzed <- true

(* Full fallback: recompute the graph from scratch, keep skews, rerun a
   complete analyze. Any partial splicing a bailed refresh left behind
   is discarded wholesale because every array is replaced. *)
and rebuild t =
  Mbr_obs.Trace.with_span ~name:"sta.graph" (fun () -> compute_graph t);
  t.n_full_builds <- t.n_full_builds + 1;
  analyze t

let ensure t = if not t.analyzed then analyze t

let m_corners = Mbr_obs.Metrics.counter "sta.corners"

let build ?(config = default_config) ?(corners = Corner.default) pl =
  if Array.length corners = 0 then
    invalid_arg "Sta.build: empty corner set";
  let dsg = Placement.design pl in
  let nc = Array.length corners in
  let t =
    {
      cfg = config;
      pl;
      dsg;
      corners = Array.copy corners;
      n = 0;
      role = Bytes.empty;
      topo = [||];
      topo_pos = [||];
      skew_dense = [||];
      arrival = plane_make 0 neg_infinity;
      required = plane_make 0 infinity;
      plan = None;
      plan_dirty = Bytes.empty;
      n_plan_builds = 0;
      n_plan_patches = 0;
      plan_srcs = ivec_create ();
      reg_cache = None;
      analyzed = false;
      dsg_cursor = 0;
      pl_cursor = Placement.revision pl;
      net_seen = [||];
      n_full_builds = 1;
      n_refreshes = 0;
      pg_epoch = 0;
      pg_x = [||];
      pg_y = [||];
      pg_cap = [||];
      pg_stamp = [||];
      nd_stamp = [||];
      nd_pin = [||];
    }
  in
  compute_graph t;
  Mbr_obs.Metrics.incr ~by:nc m_corners;
  analyze t;
  t

let set_corners t cs =
  if Array.length cs = 0 then invalid_arg "Sta.set_corners: empty corner set";
  t.corners <- Array.copy cs;
  let nc = Array.length cs in
  t.arrival <- plane_make (t.n * nc) neg_infinity;
  t.required <- plane_make (t.n * nc) infinity;
  Mbr_obs.Metrics.incr ~by:nc m_corners;
  analyze t

(* ---- incremental refresh ---- *)

exception Bail

let grow t n' =
  if n' > t.n then begin
    let role = Bytes.make n' '\000' in
    Bytes.blit t.role 0 role 0 t.n;
    t.role <- role;
    let pos = Array.make n' (-1) in
    Array.blit t.topo_pos 0 pos 0 t.n;
    t.topo_pos <- pos;
    (* the corner count is unchanged, so the interleaved prefix of the
       old plane is position-identical in the new one — one blit *)
    let nc = Array.length t.corners in
    let grow_plane pl def =
      let b = plane_make (n' * nc) def in
      if t.n > 0 then
        Bigarray.Array1.blit
          (Bigarray.Array1.sub pl 0 (t.n * nc))
          (Bigarray.Array1.sub b 0 (t.n * nc));
      b
    in
    t.arrival <- grow_plane t.arrival neg_infinity;
    t.required <- grow_plane t.required infinity;
    (* the plan stays: pins past its range count as dirty *)
    let flags = Bytes.make n' '\000' in
    Bytes.blit t.plan_dirty 0 flags 0 t.n;
    t.plan_dirty <- flags;
    t.n <- n'
  end

(* Splice what changed since the engine last looked into the existing
   graph and re-propagate only what it touched: the design's edit log
   names added, removed and retyped cells and every rewired pin; the
   placement's net stamps name every net whose pins, pin locations or
   pin caps changed. The structural part handles register/port pins
   exactly: those are pure sources or pure sinks of the data graph (no
   timing arc crosses a register), so composition edits never perturb
   the relative order of surviving pins and the topological order can
   be repaired by prepending new sources and appending new sinks.
   Anything that could reorder the interior — a combinational cell
   appearing, or a new arc that contradicts the current order — bails
   to {!rebuild}, as does an edit batch whose touched-pin estimate
   exceeds [rebuild_threshold] of the graph (a vanishing comb cell is
   fine: a subgraph of a DAG keeps the DAG's topological order). The
   splice's numeric repair is a plan patch plus the mark-skip scans, so
   what remains over the batched full build is the per-net marking;
   the break-even sits above half the graph. 0.6 keeps
   composition-scale batches — a merge pass replacing a third of the
   registers dirties ~half the pins — on the splice, and sends only
   wholesale rewrites to {!rebuild}. *)
let rebuild_threshold = 0.6

let refresh t =
  let dsg_rev = Design.revision t.dsg in
  let pl_rev = Placement.revision t.pl in
  if dsg_rev = t.dsg_cursor && pl_rev = t.pl_cursor then ()
  else
    Mbr_obs.Trace.with_span ~name:"sta.refresh"
      ~args:[ ("n_pins", Mbr_obs.Trace.Int t.n) ]
    @@ fun () ->
    try
      (* the pre-patch plan: an analyzed engine always holds one, and
         it still carries every arc as of [dsg_cursor]; after a rebuild
         whose walk raised there is none, and the rebuild is retried *)
      let o = match t.plan with Some o -> o | None -> raise Bail in
      let rewired = ref [] in
      let added = ref [] and removed = ref [] and retyped = ref [] in
      List.iter
        (function
          | Design.Net_changed (_, pid) -> rewired := pid :: !rewired
          | Design.Cell_added cid -> added := cid :: !added
          | Design.Cell_removed cid -> removed := cid :: !removed
          | Design.Cell_retyped cid -> retyped := cid :: !retyped)
        (Design.edits_since t.dsg t.dsg_cursor);
      (* A comb cell *appearing* can reshape the interior of the
         topological order — punt. A comb cell vanishing cannot: a
         subgraph of a DAG keeps the DAG's topological order, so
         removals only drop arcs and ride the generic removed-cell
         path below. *)
      let is_comb cid =
        match (Design.cell t.dsg cid).Types.c_kind with
        | Types.Comb _ -> true
        | _ -> false
      in
      if List.exists is_comb !added then raise Bail;
      (* Dirty nets: every net whose stamp moved since this engine last
         recorded it — a pin joined or left it, or a cell with a pin on
         it moved or was retyped (pin offsets, caps and drive). Either
         way its arc delays and load are stale. A bail recomputes
         everything, stamps included, so they are recorded here. *)
      let nn = Design.n_nets t.dsg in
      if Array.length t.net_seen < nn then begin
        let b = Array.make (max nn (2 * Array.length t.net_seen)) (-1) in
        Array.blit t.net_seen 0 b 0 (Array.length t.net_seen);
        t.net_seen <- b
      end;
      let dirty_nets = ref [] in
      for nid = nn - 1 downto 0 do
        let s = Placement.net_stamp t.pl nid in
        if s <> t.net_seen.(nid) then begin
          t.net_seen.(nid) <- s;
          dirty_nets := nid :: !dirty_nets
        end
      done;
      let estimate =
        List.fold_left
          (fun acc nid -> acc + List.length (Design.net t.dsg nid).Types.n_pins)
          0 !dirty_nets
        + List.fold_left
            (fun acc cid -> acc + List.length (Design.pins_of t.dsg cid))
            0
            (!added @ !removed @ !retyped)
        + (pl_rev - t.pl_cursor)
      in
      if float_of_int estimate > rebuild_threshold *. float_of_int (max t.n 1)
      then raise Bail;
      grow t (Design.n_pins t.dsg);
      let nc = Array.length t.corners in
      (* the one mark: a marked pin seeds both scans, and the plan
         patch re-derives its arcs, status, launch base and setup term *)
      let mark pid = Bytes.unsafe_set t.plan_dirty pid '\001' in
      Mbr_obs.Trace.with_span ~name:"sta.splice" (fun () ->
      (* 1. removed cells leave the graph; the arcs they lose are read
         off the plan below, through the disconnects [remove_cell]
         logged for their connected pins *)
      List.iter
        (fun cid ->
          List.iter
            (fun pid ->
              if in_graph t pid then begin
                Bytes.unsafe_set t.role pid '\000';
                mark pid;
                t.topo_pos.(pid) <- -1;
                for k = 0 to nc - 1 do
                  pset t.arrival ((pid * nc) + k) neg_infinity;
                  pset t.required ((pid * nc) + k) infinity
                done
              end)
            (Design.pins_of t.dsg cid))
        !removed;
      (* 2. added cells join the graph; their arcs arrive through the
         Net_changed edits their wiring logged *)
      let new_pins = ref [] in
      List.iter
        (fun cid ->
          let c = Design.cell t.dsg cid in
          if not c.Types.c_dead then
            List.iter
              (fun pid ->
                let r = pin_role t.dsg pid in
                if r <> '\000' && not (in_graph t pid) then begin
                  Bytes.set t.role pid r;
                  mark pid;
                  new_pins := pid :: !new_pins
                end)
              c.Types.c_pins)
        !added;
      (* 3. retyped registers: clk->q and setup changed *)
      List.iter
        (fun cid ->
          List.iter
            (fun pid -> if in_graph t pid then mark pid)
            (Design.pins_of t.dsg cid))
        !retyped;
      (* a driver's output load changed: its launch, or the comb delay
         through it, depends on it *)
      let mark_load d =
        mark d;
        if Bytes.get t.role d = 'o' then iter_in_arcs t d mark
      in
      (* 4. rewired pins: the net arcs a pin had when the plan was last
         made are its succ row if it drives (its pred row is cell arcs
         or none) and its pred row if it loads; every in-graph end of
         such an arc is marked, as an arc that may have vanished. A
         pin that stays in the graph is marked too (its status follows
         its connectivity), and a driver's load changed. *)
      let on = Array.length o.st_slot in
      List.iter
        (fun pid ->
          let drives = (Design.pin t.dsg pid).Types.p_dir = Types.Output in
          let off, ends =
            if drives then (o.su_off, o.su_dst) else (o.pr_off, o.pr_src)
          in
          if pid < on then
            for j = off.(pid) to off.(pid + 1) - 1 do
              if in_graph t ends.(j) then mark ends.(j)
            done;
          if in_graph t pid then begin
            mark pid;
            if drives then mark_load pid
          end)
        !rewired;
      (* 5. every dirty net: its current arcs and its driver's load *)
      List.iter
        (fun nid ->
          match Design.driver t.dsg nid with
          | Some d when in_graph t d ->
            if not (Design.net t.dsg nid).Types.n_is_clock then
              List.iter
                (fun s ->
                  if in_graph t s then begin
                    if
                      t.topo_pos.(d) >= 0 && t.topo_pos.(s) >= 0
                      && t.topo_pos.(d) > t.topo_pos.(s)
                    then raise Bail;
                    mark s
                  end)
                (Design.sinks t.dsg nid);
            mark_load d
          | Some _ | None -> ())
        !dirty_nets;
      (* 6. local topo repair: new pins are register/port pins, i.e.
         pure sources (outputs) or pure sinks (inputs) of the data
         graph *)
      if !new_pins <> [] then begin
        let sources, sinks =
          List.partition
            (fun pid -> (Design.pin t.dsg pid).Types.p_dir = Types.Output)
            !new_pins
        in
        let kept = List.filter (in_graph t) (Array.to_list t.topo) in
        t.topo <- Array.of_list (sources @ kept @ sinks);
        let tp = Array.make t.n (-1) in
        Array.iteri (fun idx pid -> tp.(pid) <- idx) t.topo;
        t.topo_pos <- tp
      end);
      (* 7. numeric repair: both scans are seeded with every marked pin
         still in the graph (a pin recomputed from unchanged inputs
         keeps its bits, so a seed that needed only one direction costs
         a recompute, never a value), after the plan is patched at the
         marked pins (the skew sweeps and metrics that follow reuse it
         as-is). A pin is recomputed off its final predecessors and its
         cone chased only while values actually change. *)
      Mbr_obs.Trace.with_span ~name:"sta.repair" @@ fun () ->
      let seeds = ref [] and n_seeds = ref 0 in
      for pid = t.n - 1 downto 0 do
        if Bytes.unsafe_get t.plan_dirty pid <> '\000' && in_graph t pid then begin
          seeds := pid :: !seeds;
          incr n_seeds
        end
      done;
      Mbr_obs.Metrics.incr ~by:!n_seeds m_dirty_pins;
      let p = make_plan t in
      ignore (forward_scan t p ~seeds:!seeds ~changed:None ~cancel:None);
      ignore (backward_scan t p ~seeds:!seeds ~changed:None ~cancel:None);
      t.dsg_cursor <- dsg_rev;
      t.pl_cursor <- pl_rev;
      t.n_refreshes <- t.n_refreshes + 1;
      Mbr_obs.Metrics.incr m_refreshes
    with Bail ->
      Mbr_obs.Metrics.incr m_rebuild_fallbacks;
      rebuild t

let full_builds t = t.n_full_builds

let refreshes t = t.n_refreshes

let plan_builds t = t.n_plan_builds

let plan_patches t = t.n_plan_patches

(* Telemetry for the skew-update hot path: [sta.skew.frontier_pins]
   accumulates the pins the scans recomputed, [sta.skew.level_passes]
   the scan passes run (two per batch, one per direction). *)
let m_skew_frontier = Mbr_obs.Metrics.counter "sta.skew.frontier_pins"

let m_skew_levels = Mbr_obs.Metrics.counter "sta.skew.level_passes"

(* [collect_touched] additionally reports which registers own a D or Q
   pin whose arrival or required actually changed — the complete set of
   registers whose [reg_d_slack]/[reg_q_slack] can differ from before
   the call. The worklist-driven skew optimizer uses this to re-examine
   only those registers. *)
let update_skews_impl ?cancel t ~collect_touched assignments =
  ensure t;
  let moved = List.filter (fun (cid, s) -> skew t cid <> s) assignments in
  List.iter (fun (cid, s) -> set_skew t cid s) moved;
  (* seed pins: the moved registers' in-graph Q and D pins *)
  let q_seeds = ref [] and d_seeds = ref [] in
  List.iter
    (fun (cid, _) ->
      List.iter
        (fun pid ->
          match Bytes.get t.role pid with
          | 'q' -> q_seeds := pid :: !q_seeds
          | 'd' -> d_seeds := pid :: !d_seeds
          | _ -> ())
        (Design.pins_of t.dsg cid))
    moved;
  if !q_seeds = [] && !d_seeds = [] then []
  else begin
    (* an analyzed engine always holds its plan *)
    let p = Option.get t.plan in
    let changed = if collect_touched then Some (ivec_create ()) else None in
    let pf = forward_scan t p ~seeds:!q_seeds ~changed ~cancel in
    let pb = backward_scan t p ~seeds:!d_seeds ~changed ~cancel in
    Mbr_obs.Metrics.incr ~by:(pf + pb) m_skew_frontier;
    Mbr_obs.Metrics.incr ~by:2 m_skew_levels;
    match changed with
    | None -> []
    | Some v ->
      (* A changed register pin is a connected Q or D pin (an
         unconnected one keeps arrival -inf / required +inf), i.e. a
         startpoint or an endpoint, so the plan's slot tables name
         its register; ports carry cell -1 there. *)
      let regs, slot = register_index t in
      let seen = Array.make (max (Array.length regs) 1) false in
      let acc = ref [] in
      let note cid =
        if cid >= 0 && cid < Array.length slot then begin
          let s = slot.(cid) in
          if s >= 0 && not seen.(s) then begin
            seen.(s) <- true;
            acc := cid :: !acc
          end
        end
      in
      for i = 0 to v.iv_len - 1 do
        let pid = v.iv_a.(i) in
        let sl = p.st_slot.(pid) in
        if sl >= 0 then note p.st_cell.(sl);
        let sl = p.ep_slot.(pid) in
        if sl >= 0 then note p.ep_cell.(sl)
      done;
      List.sort compare !acc
  end

let update_skews ?cancel t assignments =
  ignore (update_skews_impl ?cancel t ~collect_touched:false assignments)

let update_skews_touched ?cancel t assignments =
  update_skews_impl ?cancel t ~collect_touched:true assignments

(* ---- worst-corner accessors ----

   Reachability is structural (corner-independent), so a pin either has
   a finite arrival in every corner or in none; likewise requireds. The
   worst arrival over corners is the max, the worst required the min,
   and the worst slack is the min of the per-corner slacks — note this
   is NOT (min required) - (max arrival), which could pair values from
   different corners. *)

(* Worst slack over the corner planes for an in-graph pin, or +inf when
   unreached in every corner. The allocation-free core under [slack],
   [wns_tns] and [reg_pin_slack]: no option, no intermediate list. *)
let pin_worst_slack t pid =
  let nc = Array.length t.corners in
  let worst = ref infinity in
  for k = 0 to nc - 1 do
    let a = pget t.arrival ((pid * nc) + k)
    and r = pget t.required ((pid * nc) + k) in
    if a > neg_infinity && r < infinity then begin
      let s = r -. a in
      if s < !worst then worst := s
    end
  done;
  !worst

let arrival t pid =
  ensure t;
  if pid < 0 || pid >= t.n || not (in_graph t pid) then None
  else begin
    let nc = Array.length t.corners in
    let best = ref neg_infinity in
    for k = 0 to nc - 1 do
      if pget t.arrival ((pid * nc) + k) > !best then
        best := pget t.arrival ((pid * nc) + k)
    done;
    if !best = neg_infinity then None else Some !best
  end

let required t pid =
  ensure t;
  if pid < 0 || pid >= t.n || not (in_graph t pid) then None
  else begin
    let nc = Array.length t.corners in
    let best = ref infinity in
    for k = 0 to nc - 1 do
      if pget t.required ((pid * nc) + k) < !best then
        best := pget t.required ((pid * nc) + k)
    done;
    if !best = infinity then None else Some !best
  end

let slack t pid =
  ensure t;
  if pid < 0 || pid >= t.n || not (in_graph t pid) then None
  else begin
    let s = pin_worst_slack t pid in
    if s < infinity then Some s
    else begin
      (* +inf is also a legal slack value; distinguish unreached *)
      let nc = Array.length t.corners in
      let valid = ref false in
      for k = 0 to nc - 1 do
        if
          pget t.arrival ((pid * nc) + k) > neg_infinity
          && pget t.required ((pid * nc) + k) < infinity
        then valid := true
      done;
      if !valid then Some s else None
    end
  end

let check_corner t name k =
  ensure t;
  if k < 0 || k >= Array.length t.corners then
    invalid_arg ("Sta." ^ name ^ ": corner index out of range")

let corner_slack t k pid =
  check_corner t "corner_slack" k;
  if pid < 0 || pid >= t.n || not (in_graph t pid) then None
  else begin
    let nc = Array.length t.corners in
    let a = pget t.arrival ((pid * nc) + k)
    and r = pget t.required ((pid * nc) + k) in
    if a > neg_infinity && r < infinity then Some (r -. a) else None
  end

(* Corner [k]'s value at [pid] in [plane], [None] outside the graph or
   at the plane's [unset] value (unreached). *)
let corner_value t k pid plane unset =
  if pid < 0 || pid >= t.n || not (in_graph t pid) then None
  else begin
    let v = pget plane ((pid * Array.length t.corners) + k) in
    if v = unset then None else Some v
  end

let corner_arrival t k pid =
  check_corner t "corner_arrival" k;
  corner_value t k pid t.arrival neg_infinity

let corner_required t k pid =
  check_corner t "corner_required" k;
  corner_value t k pid t.required infinity

(* The endpoints, in ascending pin order: the analyzed plan's slot
   table. *)
let endpoint_pins t =
  ensure t;
  (* an analyzed engine always holds its plan *)
  (Option.get t.plan).ep_pin

let endpoint_slacks t =
  List.filter_map
    (fun pid ->
      match slack t pid with Some s -> Some (pid, s) | None -> None)
    (Array.to_list (endpoint_pins t))

(* Single endpoint sweep over the planes — no [endpoint_slacks] list is
   materialized. The fold visits the endpoints in ascending pin order,
   so the TNS float-summation order (and hence the bits) is the same
   on every path that reaches the same netlist. *)
let wns_tns t =
  let w = ref infinity and tn = ref 0.0 in
  Array.iter
    (fun pid ->
      let s = pin_worst_slack t pid in
      if s < infinity then begin
        if s < !w then w := s;
        if s < 0.0 then tn := !tn +. s
      end
      else begin
        let nc = Array.length t.corners in
        let valid = ref false in
        for k = 0 to nc - 1 do
          if
            pget t.arrival ((pid * nc) + k) > neg_infinity
            && pget t.required ((pid * nc) + k) < infinity
          then valid := true
        done;
        if !valid && s < !w then w := s
      end)
    (endpoint_pins t);
  (!w, !tn)

let wns t = fst (wns_tns t)

let tns t = snd (wns_tns t)

let corner_wns_tns t k =
  check_corner t "corner_wns_tns" k;
  let nc = Array.length t.corners in
  Array.fold_left
    (fun (w, tn) pid ->
      let a = pget t.arrival ((pid * nc) + k)
      and r = pget t.required ((pid * nc) + k) in
      if a > neg_infinity && r < infinity then begin
        let s = r -. a in
        (Float.min w s, if s < 0.0 then tn +. s else tn)
      end
      else (w, tn))
    (infinity, 0.0) (endpoint_pins t)

let per_corner_wns_tns t =
  ensure t;
  Array.to_list
    (Array.mapi
       (fun k c ->
         let w, tn = corner_wns_tns t k in
         (c.Corner.name, w, tn))
       t.corners)

let failing_endpoints t =
  Array.fold_left
    (fun acc pid -> if pin_worst_slack t pid < 0.0 then acc + 1 else acc)
    0 (endpoint_pins t)

let n_endpoints t = Array.length (endpoint_pins t)

let output_load t pid =
  let p = Design.pin t.dsg pid in
  if p.Types.p_dir <> Types.Output then 0.0
  else match p.Types.p_net with Some nid -> net_load t nid | None -> 0.0

let reg_pin_slack t cid want_d =
  ensure t;
  let c = Design.cell t.dsg cid in
  (match c.Types.c_kind with
  | Types.Register _ -> ()
  | Types.Comb _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
    invalid_arg "Sta: not a register");
  List.fold_left
    (fun acc pid ->
      let p = Design.pin t.dsg pid in
      let relevant =
        match p.Types.p_kind with
        | Types.Pin_d _ -> want_d && p.Types.p_net <> None
        | Types.Pin_q _ -> (not want_d) && p.Types.p_net <> None
        | _ -> false
      in
      if relevant && pid >= 0 && pid < t.n && in_graph t pid then begin
        let s = pin_worst_slack t pid in
        if s < acc then s else acc
      end
      else acc)
    infinity c.Types.c_pins

let reg_d_slack t cid = reg_pin_slack t cid true

let reg_q_slack t cid = reg_pin_slack t cid false
