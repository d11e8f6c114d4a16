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

(* Per-pin and per-net state grows by doubling, so a refresh that adds
   pins copies an array only when it outgrows its capacity: each grow
   function returns its argument when it already holds [n] entries, else
   a copy at least twice as long, padded with the default. Such arrays
   may be longer than the count they cover. *)
let grow_ints (a : int array) n def =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (2 * len)) def in
    Array.blit a 0 b 0 len;
    b
  end

let grow_floats (a : float array) n def =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (2 * len)) def in
    Array.blit a 0 b 0 len;
    b
  end

let grow_bytes b n =
  let len = Bytes.length b in
  if n <= len then b
  else begin
    let b' = Bytes.make (max n (2 * len)) '\000' in
    Bytes.blit b 0 b' 0 len;
    b'
  end

let grow_plane (pl : plane) n def : plane =
  let len = Bigarray.Array1.dim pl in
  if n <= len then pl
  else begin
    let b = plane_make (max n (2 * len)) def in
    if len > 0 then Bigarray.Array1.blit pl (Bigarray.Array1.sub b 0 len);
    b
  end

(* A growable int buffer for changed-pin collection: [int array] backed
   (unboxed), unlike a list whose cons cells would churn the minor heap
   once per changed pin. *)
type ivec = { mutable iv_a : int array; mutable iv_len : int }

let ivec_create () = { iv_a = Array.make 64 0; iv_len = 0 }

let ivec_push v x =
  if v.iv_len = Array.length v.iv_a then v.iv_a <- grow_ints v.iv_a (v.iv_len + 1) 0;
  v.iv_a.(v.iv_len) <- x;
  v.iv_len <- v.iv_len + 1

let ivec_to_list v =
  let l = ref [] in
  for i = v.iv_len - 1 downto 0 do
    l := v.iv_a.(i) :: !l
  done;
  !l

(* The propagation plan; see the plan section below. *)
type plan = {
  pl_nc : int;
  mutable pl_n : int;  (* pins with rows: ids [0, pl_n) *)
  (* Per-pin rows of arcs with the per-corner derated delays alongside
     (entry-major: entry [j]'s corner-[k] delay sits at [j * nc + k]),
     so the propagation loops stream flat int/float arrays. Pin [q]'s
     pred entries are [pr_row.(2q), pr_row.(2q+1)) of [pr_src] /
     [pr_delay], its succ entries [su_row.(2q), su_row.(2q+1)) of
     [su_dst] / [su_delay]; the succ side is the pred side's transpose,
     each succ row in ascending destination order. A pred row's capacity
     is fixed when its pin joins, and the rows lie in pin order, so a
     pin's capacity ends where the next pin's row starts ([pr_top] after
     the last). A succ row holds [su_cap] entries and moves to [su_top]
     when it outgrows them; [su_live] counts the live succ entries. *)
  mutable pr_row : int array;
  mutable pr_src : int array;
  mutable pr_delay : float array;
  mutable pr_top : int;
  mutable su_row : int array;
  mutable su_cap : int array;
  mutable su_dst : int array;
  mutable su_delay : float array;
  mutable su_top : int;
  mutable su_live : int;
  (* The start/endpoint table, the engine's only record of which pins
     launch and capture, indexed by pin: [status] is 's' for a
     startpoint, 'e' for an endpoint, '\000' for neither; [sp_cell]
     names the register behind a Q/D pin (-1 for ports); [sp_term] (nc
     per pin) holds a startpoint's launch base or an endpoint's setup
     term. Launch = skew(sp_cell) + base (base alone for skewless
     startpoints); required = (clock_period + skew(sp_cell)) - term
     (period - term when skewless). [st_pin] / [ep_pin] list the
     startpoints / endpoints in ascending pin order. *)
  mutable status : Bytes.t;
  mutable sp_cell : int array;
  mutable sp_term : float array;
  st_pin : ivec;
  ep_pin : ivec;
  (* the scans' scratch: a per-pin epoch stamp (to recompute this pass)
     and per-corner recompute scratch *)
  mutable ps_mark : int array;
  ps_tmp : float array;
  mutable ps_epoch : int;
}

type t = {
  cfg : config;
  pl : Placement.t;
  dsg : Design.t;
  mutable corners : Corner.t array;
  mutable n : int;
      (* pin count covered by the per-pin arrays below, which may be
         longer *)
  mutable role : Bytes.t;
      (* per pin, its [pin_role]: fixed while the pin's cell lives,
         '\000' (outside the graph) once the cell is removed. Tells a
         register's Q and D pins apart without a design lookup. *)
  mutable topo : Types.pin_id array;
      (* the topological order is [topo.(topo_lo) .. topo.(topo_hi - 1)],
         with slack at both ends for the sources and sinks refreshes add.
         A pin that left the graph stays in place as a tombstone: its
         [topo_pos] is -1, so no scan marks it, until the order is laid
         out afresh. *)
  mutable topo_lo : int;
  mutable topo_hi : int;
  mutable topo_dead : int;  (* tombstones in [topo_lo, topo_hi) *)
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
         patches it in place before returning *)
  mutable plan_dirty : Bytes.t;
  dirty : ivec;
      (* the running refresh's flagged pins, in flag order, each once.
         [plan_dirty] is 2 for a marked pin, one whose incoming arcs,
         start/endpoint status, launch base or setup term may differ
         from what [plan] holds (pins that left or joined the graph
         included), and 1 for a seeded pin, whose rows are current but
         whose timing may move (a comb driver's inputs when its load
         changed). The refresh seeds both scans with every listed
         in-graph pin; its plan patch re-derives the marked pins and
         empties the list. *)
  mutable n_plan_builds : int;
  mutable n_plan_patches : int;
  plan_srcs : ivec;
      (* a plan make's derived arc sources: one pin's for a patch;
         every pin's for a build, each pin's closed by -1 *)
  plan_flips : ivec;  (* pins whose status a patch flipped *)
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
  if id >= Array.length t.skew_dense then
    t.skew_dense <- grow_floats t.skew_dense (id + 1) 0.0;
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

(* ---- arcs, derived from the design ----

   The plan's rows are the only stored copy of the arcs: a plan make
   (for its dirty pins) and a full build's graph walk derive a pin's
   incoming arcs from [Design] under the current roles. *)

(* Open a memo epoch over the current pin and net counts. *)
let open_memo t =
  t.pg_epoch <- t.pg_epoch + 1;
  let n = t.n in
  t.pg_x <- grow_floats t.pg_x n 0.0;
  t.pg_y <- grow_floats t.pg_y n 0.0;
  t.pg_cap <- grow_floats t.pg_cap n 0.0;
  t.pg_stamp <- grow_ints t.pg_stamp n 0;
  let nn = Design.n_nets t.dsg in
  t.nd_stamp <- grow_ints t.nd_stamp nn 0;
  t.nd_pin <- grow_ints t.nd_pin nn (-1)

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
   pin (none for outputs and pins outside the graph). Returns the pin's
   pred row capacity, fixed while its cell lives: its cell's input
   count for a comb output, 1 for any other in-graph input (a net sink,
   driven or not), 0 for every other pin. A net arc needs an open memo
   epoch. *)
let in_arcs t pid f =
  match Bytes.unsafe_get t.role pid with
  | '\000' -> 0
  | 'o' ->
    List.fold_left
      (fun k i ->
        if Bytes.unsafe_get t.role i = '\001' then begin
          f i;
          k + 1
        end
        else k)
      0
      (Design.pins_of t.dsg (Design.pin t.dsg pid).Types.p_cell)
  | _ ->
    let p = Design.pin t.dsg pid in
    if p.Types.p_dir <> Types.Input then 0
    else begin
      (match p.Types.p_net with
      | Some nid ->
        let d = net_driver t nid in
        if d >= 0 then f d
      | None -> ());
      1
    end

(* ---- the topological order ---- *)

(* Slack left at each end of a fresh layout: room for [extra] pins plus
   a quarter of the [live] ones, so a relayout is paid for by at least
   [live / 4] insertions. *)
let topo_slack live extra = max 64 (extra + (live / 4))

(* Lay the order out afresh in a new array, tombstones dropped, with
   slack at both ends for [extra] more pins. *)
let topo_relayout t extra =
  let live = t.topo_hi - t.topo_lo - t.topo_dead in
  let slack = topo_slack live extra in
  let topo = Array.make (live + (2 * slack)) 0 in
  let k = ref slack in
  for i = t.topo_lo to t.topo_hi - 1 do
    let q = t.topo.(i) in
    if t.topo_pos.(q) = i then begin
      topo.(!k) <- q;
      t.topo_pos.(q) <- !k;
      incr k
    end
  done;
  t.topo <- topo;
  t.topo_lo <- slack;
  t.topo_hi <- !k;
  t.topo_dead <- 0

(* Slot new pure sources in front of the order and new pure sinks
   behind it, each group in list order: the order reads [sources @ old
   @ sinks]. *)
let topo_insert t sources sinks =
  let ns = List.length sources and nk = List.length sinks in
  if ns > t.topo_lo || t.topo_hi + nk > Array.length t.topo then
    topo_relayout t (ns + nk);
  let lo = t.topo_lo - ns in
  List.iteri
    (fun i pid ->
      t.topo.(lo + i) <- pid;
      t.topo_pos.(pid) <- lo + i)
    sources;
  t.topo_lo <- lo;
  List.iter
    (fun pid ->
      t.topo.(t.topo_hi) <- pid;
      t.topo_pos.(pid) <- t.topo_hi;
      t.topo_hi <- t.topo_hi + 1)
    sinks

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
  t.plan_dirty <- Bytes.make n '\000';
  t.dirty.iv_len <- 0;
  open_memo t;
  let live = ref 0 in
  for pid = 0 to n - 1 do
    if in_graph t pid then incr live
  done;
  let slack = topo_slack !live 0 in
  let topo = Array.make (!live + (2 * slack)) 0 and k = ref slack in
  let pos = Array.make n (-1) in
  t.topo_pos <- pos;
  let rec visit path pid =
    match pos.(pid) with
    | -1 ->
      pos.(pid) <- -2;
      let path = pid :: path in
      ignore (in_arcs t pid (visit path));
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
  t.topo <- topo;
  t.topo_lo <- slack;
  t.topo_hi <- !k;
  t.topo_dead <- 0;
  let nc = Array.length t.corners in
  t.arrival <- plane_make (n * nc) neg_infinity;
  t.required <- plane_make (n * nc) infinity;
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
  (* [Design.sinks]' order, without building its list *)
  let pin_caps =
    List.fold_left
      (fun acc s ->
        if (Design.pin dsg s).Types.p_dir = Types.Input then
          acc +. Design.pin_cap dsg s
        else acc)
      0.0 (Design.net dsg nid).Types.n_pins
  in
  let wire_len =
    match Placement.net_box t.pl nid with
    | Some box -> Mbr_geom.Rect.half_perimeter box
    | None -> 0.0
  in
  pin_caps +. (t.cfg.wire_cap *. wire_len)

(* ---- propagation plan ----

   Per-pin rows of arcs with per-corner arc delays alongside, and
   per-startpoint/endpoint launch/required constants. The plan is a
   pure function of (structure, placement, corners), the only graph
   the numeric propagation reads ([analyze], refresh's repair and every
   skew batch run the mark-skip scans below over it) and the only place
   the engine stores arcs.

   Lifecycle: [make_plan] is the one builder. A patch rewrites, in
   place, the rows of the pins the engine's [dirty] list marks, and
   every other row stays where it lies; with no previous plan (dropped
   by [analyze], which [build] and [set_corners] run, or by [rebuild])
   every pin is dirty over empty rows, and the build writes each pin's
   rows with the same writers ([write_delays], [write_status]), laying
   the succ rows down as the pred side's transpose. A refresh never
   rebuilds the plan: its splice flags the pins whose incoming arcs,
   launch base or setup term it touched (plus pins that left or joined
   the graph), and it patches them in before it propagates.

   Why no bit moves: a patched row holds what a build would write for
   the same pin (the same derivation and float ops), every succ row
   stays in ascending destination order (the transpose's order, so
   each min/max fold visits its arcs as a fresh plan's would), and the
   start/endpoint lists stay in ascending pin order (the TNS summation
   order). Where a row lies in its array reads into no value. *)

let m_plan_builds = Mbr_obs.Metrics.counter "sta.plan.builds"

let m_plan_patches = Mbr_obs.Metrics.counter "sta.plan.patches"

let m_rows_patched = Mbr_obs.Metrics.counter "sta.plan.rows_patched"

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

let new_plan nc =
  {
    pl_nc = nc;
    pl_n = 0;
    pr_row = [||];
    pr_src = [||];
    pr_delay = [||];
    pr_top = 0;
    su_row = [||];
    su_cap = [||];
    su_dst = [||];
    su_delay = [||];
    su_top = 0;
    su_live = 0;
    status = Bytes.empty;
    sp_cell = [||];
    sp_term = [||];
    st_pin = ivec_create ();
    ep_pin = ivec_create ();
    ps_mark = [||];
    ps_tmp = Array.make (max nc 1) 0.0;
    ps_epoch = 0;
  }

(* Give pins [pl_n, n) their pred rows, at the end of the pred entries,
   each of the capacity [derive pid] returns (see [in_arcs]), and room
   in every per-pin array; their succ rows are the caller's to lay. *)
let cover p n derive =
  if n > p.pl_n then begin
    let nc = p.pl_nc in
    p.pr_row <- grow_ints p.pr_row (2 * n) 0;
    p.su_row <- grow_ints p.su_row (2 * n) 0;
    p.su_cap <- grow_ints p.su_cap n 0;
    p.status <- grow_bytes p.status n;
    p.sp_cell <- grow_ints p.sp_cell n (-1);
    p.sp_term <- grow_floats p.sp_term (n * nc) 0.0;
    p.ps_mark <- grow_ints p.ps_mark n 0;
    let top = ref p.pr_top in
    for pid = p.pl_n to n - 1 do
      p.pr_row.(2 * pid) <- !top;
      p.pr_row.((2 * pid) + 1) <- !top;
      top := !top + derive pid
    done;
    p.pr_top <- !top;
    p.pr_src <- grow_ints p.pr_src !top 0;
    p.pr_delay <- grow_floats p.pr_delay (!top * nc) 0.0;
    p.pl_n <- n
  end

(* ---- succ row edits: each keeps its row in ascending destination
   order, so every min/max fold visits a row's arcs in the order the
   build lays them down ---- *)

(* The index [d] holds, or would take, in [s]'s succ row. *)
let su_find p s d =
  let lo = ref p.su_row.(2 * s) and hi = ref p.su_row.((2 * s) + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.su_dst.(mid) < d then lo := mid + 1 else hi := mid
  done;
  !lo

(* Move [s]'s succ row to the end of the succ entries, with room for
   [cap]. *)
let su_relocate p s cap =
  let nc = p.pl_nc in
  let off = p.su_row.(2 * s) and len = p.su_row.((2 * s) + 1) - p.su_row.(2 * s) in
  let top = p.su_top in
  p.su_dst <- grow_ints p.su_dst (top + cap) 0;
  p.su_delay <- grow_floats p.su_delay ((top + cap) * nc) 0.0;
  Array.blit p.su_dst off p.su_dst top len;
  Array.blit p.su_delay (off * nc) p.su_delay (top * nc) (len * nc);
  p.su_row.(2 * s) <- top;
  p.su_row.((2 * s) + 1) <- top + len;
  p.su_cap.(s) <- cap;
  p.su_top <- top + cap

(* Copy pred entry [j]'s delays onto succ entry [i]. *)
let su_copy_delays p i j =
  let nc = p.pl_nc in
  for k = 0 to nc - 1 do
    p.su_delay.((i * nc) + k) <- p.pr_delay.((j * nc) + k)
  done

(* Insert the arc [s] -> [d] into [s]'s succ row, with the delays of
   [d]'s pred entry [j]. A build inserts in ascending [d], so each arc
   lands at the end of its row. *)
let su_insert p s d j =
  let nc = p.pl_nc in
  let len = p.su_row.((2 * s) + 1) - p.su_row.(2 * s) in
  if len = p.su_cap.(s) then su_relocate p s (max 4 (2 * (len + 1)));
  let e = p.su_row.((2 * s) + 1) in
  let i =
    if e = p.su_row.(2 * s) || p.su_dst.(e - 1) < d then e else su_find p s d
  in
  if i < e then begin
    Array.blit p.su_dst i p.su_dst (i + 1) (e - i);
    Array.blit p.su_delay (i * nc) p.su_delay ((i + 1) * nc) ((e - i) * nc)
  end;
  p.su_dst.(i) <- d;
  su_copy_delays p i j;
  p.su_row.((2 * s) + 1) <- e + 1;
  p.su_live <- p.su_live + 1

(* Rewrite the arc [s] -> [d]'s delays from [d]'s pred entry [j]. *)
let su_set p s d j = su_copy_delays p (su_find p s d) j

let su_remove p s d =
  let nc = p.pl_nc in
  let e = p.su_row.((2 * s) + 1) in
  let i = su_find p s d in
  if i + 1 < e then begin
    Array.blit p.su_dst (i + 1) p.su_dst i (e - i - 1);
    Array.blit p.su_delay ((i + 1) * nc) p.su_delay (i * nc) ((e - i - 1) * nc)
  end;
  p.su_row.((2 * s) + 1) <- e - 1;
  p.su_live <- p.su_live - 1

(* Copy every live succ row, in pin order, into fresh arrays at exactly
   its length: abandoned and unused entries are dropped. *)
let su_compact p =
  Mbr_obs.Trace.with_span ~name:"sta.plan.compact" @@ fun () ->
  let nc = p.pl_nc in
  let size = max 16 (2 * p.su_live) in
  let dst = Array.make size 0 and dly = Array.make (size * nc) 0.0 in
  let top = ref 0 in
  for s = 0 to p.pl_n - 1 do
    let off = p.su_row.(2 * s) and len = p.su_row.((2 * s) + 1) - p.su_row.(2 * s) in
    Array.blit p.su_dst off dst !top len;
    Array.blit p.su_delay (off * nc) dly (!top * nc) (len * nc);
    p.su_row.(2 * s) <- !top;
    p.su_row.((2 * s) + 1) <- !top + len;
    p.su_cap.(s) <- len;
    top := !top + len
  done;
  p.su_dst <- dst;
  p.su_delay <- dly;
  p.su_top <- !top

(* The delays of pin [d]'s pred row, for the sources it holds: cell
   arcs share one base, cell-derated; a net arc gets the model's wire
   delay r·L·(c·L/2 + C_sink) off the geometry memo, wire-derated. *)
let write_delays t p d =
  let nc = p.pl_nc in
  let o0 = p.pr_row.(2 * d) and o1 = p.pr_row.((2 * d) + 1) in
  if o1 > o0 then begin
    let cell = Bytes.unsafe_get t.role d = 'o' in
    let cell_base = if cell then comb_base t d else 0.0 in
    let cfg = t.cfg in
    for j = o0 to o1 - 1 do
      if cell then
        for k = 0 to nc - 1 do
          p.pr_delay.((j * nc) + k) <- cell_base *. t.corners.(k).Corner.cell
        done
      else begin
        let s = p.pr_src.(j) in
        let base =
          if pin_geometry t s && pin_geometry t d then begin
            let len =
              Float.abs (t.pg_x.(s) -. t.pg_x.(d))
              +. Float.abs (t.pg_y.(s) -. t.pg_y.(d))
            in
            cfg.wire_res *. len
            *. ((cfg.wire_cap *. len /. 2.0) +. t.pg_cap.(d))
          end
          else 0.0
        in
        for k = 0 to nc - 1 do
          p.pr_delay.((j * nc) + k) <- base *. t.corners.(k).Corner.wire
        done
      end
    done
  end

(* Rewrite pin [d]'s arc rows in place from its derived sources, the
   contents of [plan_srcs]: drop [d] from the succ rows of the sources
   it lost, rewrite its pred row (sources and delays), insert it into
   the succ rows of the sources it gained and rewrite its delays in the
   others. Adds the rows written to [rows]. *)
let patch_arcs t p d rows =
  let a = t.plan_srcs.iv_a and k = t.plan_srcs.iv_len in
  let o0 = p.pr_row.(2 * d) and o1 = p.pr_row.((2 * d) + 1) in
  let cap = (if d + 1 < p.pl_n then p.pr_row.(2 * (d + 1)) else p.pr_top) - o0 in
  (* a pin has at most one arc per cell input: [kept] flags, by bit,
     the new sources already in the old row *)
  assert (k <= cap && cap < Sys.int_size);
  let kept = ref 0 in
  for i = 0 to k - 1 do
    for j = o0 to o1 - 1 do
      if p.pr_src.(j) = a.(i) then kept := !kept lor (1 lsl i)
    done
  done;
  for j = o0 to o1 - 1 do
    let s = p.pr_src.(j) in
    let lost = ref true in
    for i = 0 to k - 1 do
      if a.(i) = s then lost := false
    done;
    if !lost then begin
      su_remove p s d;
      incr rows
    end
  done;
  Array.blit a 0 p.pr_src o0 k;
  p.pr_row.((2 * d) + 1) <- o0 + k;
  write_delays t p d;
  incr rows;
  for i = 0 to k - 1 do
    if !kept land (1 lsl i) <> 0 then su_set p a.(i) d (o0 + i)
    else su_insert p a.(i) d (o0 + i);
    incr rows
  done

(* Rewrite pin [d]'s start/endpoint row: its status follows the current
   connectivity. A startpoint is an input port or a connected register
   Q pin, its launch base clk->q into the Q pin's load (or the input
   delay); an endpoint is a connected output port or register D pin,
   its setup term the register's setup (or the output delay). The row
   counts in [rows] when [d] has or had a status. Returns the status it
   had. *)
let write_status t p d rows =
  let nc = p.pl_nc in
  let b = d * nc in
  let st =
    if not (in_graph t d) then '\000'
    else begin
      let pn = Design.pin t.dsg d in
      let cid = pn.Types.p_cell in
      let connected = pn.Types.p_net <> None in
      match ((Design.cell t.dsg cid).Types.c_kind, pn.Types.p_kind) with
      | Types.Port Types.In_port, _ ->
        p.sp_cell.(d) <- -1;
        Array.fill p.sp_term b nc t.cfg.input_delay;
        's'
      | Types.Register ra, Types.Pin_q _ when connected ->
        p.sp_cell.(d) <- cid;
        let load =
          match pn.Types.p_net with Some nid -> net_load t nid | None -> 0.0
        in
        let cq = Cell_lib.clk_to_q ra.Types.lib_cell ~load in
        for k = 0 to nc - 1 do
          p.sp_term.(b + k) <- cq *. t.corners.(k).Corner.cell
        done;
        's'
      | Types.Register ra, Types.Pin_d _ when connected ->
        p.sp_cell.(d) <- cid;
        let setup = ra.Types.lib_cell.Cell_lib.setup in
        for k = 0 to nc - 1 do
          p.sp_term.(b + k) <- setup *. t.corners.(k).Corner.setup
        done;
        'e'
      | Types.Port Types.Out_port, _ when connected ->
        p.sp_cell.(d) <- -1;
        Array.fill p.sp_term b nc t.cfg.output_delay;
        'e'
      | _, _ -> '\000'
    end
  in
  let was = Bytes.get p.status d in
  Bytes.set p.status d st;
  if st <> '\000' || was <> '\000' then incr rows;
  was

(* Bring [l], the pins of status [c] in ascending order, up to date with
   the flips in [flips]: drop the pins that left [c], merge in the ones
   that took it. So a patched plan lists its start and endpoints as a
   fresh one does, and TNS (a float sum over the endpoints) keeps its
   bits. *)
let update_list p l c flips =
  let w = ref 0 in
  for i = 0 to l.iv_len - 1 do
    let q = l.iv_a.(i) in
    if Bytes.get p.status q = c then begin
      l.iv_a.(!w) <- q;
      incr w
    end
  done;
  l.iv_len <- !w;
  let k = ref 0 in
  for i = 0 to flips.iv_len - 1 do
    if Bytes.get p.status flips.iv_a.(i) = c then incr k
  done;
  if !k > 0 then begin
    let add = Array.make !k 0 and w = ref 0 in
    for i = 0 to flips.iv_len - 1 do
      let q = flips.iv_a.(i) in
      if Bytes.get p.status q = c then begin
        add.(!w) <- q;
        incr w
      end
    done;
    Array.sort Int.compare add;
    let n0 = l.iv_len in
    l.iv_a <- grow_ints l.iv_a (n0 + !k) 0;
    let i = ref (n0 - 1) and j = ref (!k - 1) in
    for w = n0 + !k - 1 downto 0 do
      if !j >= 0 && (!i < 0 || add.(!j) > l.iv_a.(!i)) then begin
        l.iv_a.(w) <- add.(!j);
        decr j
      end
      else begin
        l.iv_a.(w) <- l.iv_a.(!i);
        decr i
      end
    done;
    l.iv_len <- n0 + !k
  end

(* Make the plan for the current graph, placement and corners, and
   install it: patch the installed plan in place when there is one,
   build from scratch otherwise. A patch first gives pins the plan does
   not cover yet their rows, then rewrites the rows of exactly the pins
   the [dirty] list marks (in list order, each pin's arcs derived from
   the design), updates the start/endpoint lists when a status flipped,
   compacts the succ entries once the dead ones outnumber the live, and
   empties the list. A build derives every pin's arcs once, writes
   every pin's pred row and status in ascending order, and lays every
   succ row down at exactly its fanout. Each net's load is computed at
   most once per pin written: only its single driver's cell arcs or
   launch read it. Returns the plan and the rows it wrote: pred, succ
   and start/endpoint rows, which a patch adds to
   [sta.plan.rows_patched] and reports as the [rows] arg of its
   span. *)
let make_plan t =
  let nc = Array.length t.corners in
  let n = t.n in
  let full = Option.is_none t.plan in
  fst
  @@ Mbr_obs.Trace.with_span_result
       ~name:(if full then "sta.plan.build" else "sta.plan.patch")
       ~args:[ ("n_pins", Mbr_obs.Trace.Int n) ]
       ~result_args:(fun (_, rows) ->
         if full then [] else [ ("rows", Mbr_obs.Trace.Int rows) ])
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
  let p = match t.plan with Some p -> p | None -> new_plan nc in
  let srcs = t.plan_srcs and dirty = t.dirty in
  srcs.iv_len <- 0;
  let rows = ref 0 in
  if full then begin
    (* one derivation per pin, in pin order: the arcs land in [srcs],
       each pin's closed by -1, and each source's fanout in [su_cap] *)
    let note s =
      ivec_push srcs s;
      p.su_cap.(s) <- p.su_cap.(s) + 1
    in
    cover p n (fun pid ->
        let cap = in_arcs t pid note in
        ivec_push srcs (-1);
        cap);
    let a = srcs.iv_a and pos = ref 0 in
    for pid = 0 to n - 1 do
      let o0 = p.pr_row.(2 * pid) and k = ref 0 in
      while a.(!pos + !k) >= 0 do
        p.pr_src.(o0 + !k) <- a.(!pos + !k);
        incr k
      done;
      p.pr_row.((2 * pid) + 1) <- o0 + !k;
      pos := !pos + !k + 1;
      write_delays t p pid
    done;
    for pid = 0 to n - 1 do
      if in_graph t pid then begin
        ignore (write_status t p pid rows);
        match Bytes.get p.status pid with
        | 's' -> ivec_push p.st_pin pid
        | 'e' -> ivec_push p.ep_pin pid
        | _ -> ()
      end
    done;
    (* every succ row at exactly its fanout, filled in ascending
       destination order: the pred side's transpose *)
    let top = ref 0 in
    for s = 0 to n - 1 do
      p.su_row.(2 * s) <- !top;
      p.su_row.((2 * s) + 1) <- !top;
      top := !top + p.su_cap.(s)
    done;
    p.su_dst <- Array.make (max !top 1) 0;
    p.su_delay <- Array.make (max (!top * nc) 1) 0.0;
    p.su_top <- !top;
    p.su_live <- !top;
    for d = 0 to n - 1 do
      for j = p.pr_row.(2 * d) to p.pr_row.((2 * d) + 1) - 1 do
        let s = p.pr_src.(j) in
        let i = p.su_row.((2 * s) + 1) in
        p.su_dst.(i) <- d;
        su_copy_delays p i j;
        p.su_row.((2 * s) + 1) <- i + 1
      done
    done
  end
  else begin
    (* new pins start with empty succ rows *)
    let n0 = p.pl_n in
    cover p n (fun pid -> in_arcs t pid ignore);
    for pid = n0 to n - 1 do
      p.su_row.(2 * pid) <- p.su_top;
      p.su_row.((2 * pid) + 1) <- p.su_top
    done;
    let push = ivec_push srcs and flips = t.plan_flips in
    flips.iv_len <- 0;
    for i = 0 to dirty.iv_len - 1 do
      let pid = dirty.iv_a.(i) in
      if Bytes.unsafe_get t.plan_dirty pid = '\002' then begin
        srcs.iv_len <- 0;
        ignore (in_arcs t pid push);
        patch_arcs t p pid rows;
        let was = write_status t p pid rows in
        if Bytes.get p.status pid <> was then ivec_push flips pid
      end
    done;
    if flips.iv_len > 0 then begin
      update_list p p.st_pin 's' flips;
      update_list p p.ep_pin 'e' flips
    end;
    (* compact once the abandoned and unused succ entries outnumber the
       live ones *)
    if p.su_top - p.su_live > p.su_live then su_compact p;
    Mbr_obs.Metrics.incr ~by:!rows m_rows_patched
  end;
  for i = 0 to dirty.iv_len - 1 do
    Bytes.unsafe_set t.plan_dirty dirty.iv_a.(i) '\000'
  done;
  dirty.iv_len <- 0;
  t.plan <- Some p;
  (p, !rows)

(* Mark-skip scans, the engine's one propagation shape: stream the
   whole topo order (reversed for requireds) and recompute a pin only
   when it is a seed or one of its predecessors (successors) actually
   moved — one epoch-stamped mark per pin, so the row walk stays
   sequential and a quiet pin or a tombstone costs one array read. A
   recomputed pin takes the max (min) over its final predecessors
   (successors) and its launch (required) term. Skipping is sound
   because an unmarked pin would recompute to its stored value bit for
   bit (same final neighbours, same delays), so the planes AND the
   changed-pin set are those of recomputing every pin. The cancel
   token, when given, is polled every 4096 order slots, but a scan
   always runs to completion (a batch is atomic; callers like
   [Skew.optimize] act on the token at their own sweep boundary), so a
   cancelled batch leaves exactly the planes an uncancelled one would.
   Returns the recomputed-pin count. *)
let forward_scan t p ~seeds ~changed ~cancel =
  let nc = p.pl_nc in
  p.ps_epoch <- p.ps_epoch + 1;
  let epoch = p.ps_epoch in
  let mark = p.ps_mark in
  List.iter
    (fun pid -> if t.topo_pos.(pid) >= 0 then Array.unsafe_set mark pid epoch)
    seeds;
  let tmp = p.ps_tmp in
  let arr = t.arrival in
  let topo = t.topo in
  let status = p.status and sp_cell = p.sp_cell and sp_term = p.sp_term in
  let pr_row = p.pr_row and pr_src = p.pr_src and pr_delay = p.pr_delay in
  let su_row = p.su_row and su_dst = p.su_dst in
  let processed = ref 0 in
  for i = t.topo_lo to t.topo_hi - 1 do
    (match cancel with
    | Some c when i land 4095 = 0 -> ignore (Mbr_util.Cancel.check c)
    | Some _ | None -> ());
    let q = Array.unsafe_get topo i in
    if Array.unsafe_get mark q = epoch then begin
      incr processed;
      let qb = q * nc in
      if Bytes.unsafe_get status q = 's' then begin
        let cid = Array.unsafe_get sp_cell q in
        if cid >= 0 then begin
          let sk = skew t cid in
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (sk +. Array.unsafe_get sp_term (qb + k))
          done
        end
        else
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (Array.unsafe_get sp_term (qb + k))
          done
      end
      else
        for k = 0 to nc - 1 do
          Array.unsafe_set tmp k neg_infinity
        done;
      for j = Array.unsafe_get pr_row (2 * q) to Array.unsafe_get pr_row ((2 * q) + 1) - 1 do
        let sb = Array.unsafe_get pr_src j * nc in
        let b = j * nc in
        for k = 0 to nc - 1 do
          let a =
            pget arr (sb + k) +. Array.unsafe_get pr_delay (b + k)
          in
          if a > Array.unsafe_get tmp k then Array.unsafe_set tmp k a
        done
      done;
      let moved = ref false in
      for k = 0 to nc - 1 do
        let v = Array.unsafe_get tmp k in
        if v <> pget arr (qb + k) then begin
          moved := true;
          pset arr (qb + k) v
        end
      done;
      if !moved then begin
        (match changed with Some v -> ivec_push v q | None -> ());
        for j = Array.unsafe_get su_row (2 * q) to Array.unsafe_get su_row ((2 * q) + 1) - 1 do
          Array.unsafe_set mark (Array.unsafe_get su_dst j) epoch
        done
      end
    end
  done;
  !processed

let backward_scan t p ~seeds ~changed ~cancel =
  let nc = p.pl_nc in
  p.ps_epoch <- p.ps_epoch + 1;
  let epoch = p.ps_epoch in
  let mark = p.ps_mark in
  List.iter
    (fun pid -> if t.topo_pos.(pid) >= 0 then Array.unsafe_set mark pid epoch)
    seeds;
  let tmp = p.ps_tmp in
  let req = t.required in
  let period = t.cfg.clock_period in
  let topo = t.topo in
  let status = p.status and sp_cell = p.sp_cell and sp_term = p.sp_term in
  let pr_row = p.pr_row and pr_src = p.pr_src in
  let su_row = p.su_row and su_dst = p.su_dst and su_delay = p.su_delay in
  let processed = ref 0 in
  for i = t.topo_hi - 1 downto t.topo_lo do
    (match cancel with
    | Some c when i land 4095 = 0 -> ignore (Mbr_util.Cancel.check c)
    | Some _ | None -> ());
    let q = Array.unsafe_get topo i in
    if Array.unsafe_get mark q = epoch then begin
      incr processed;
      let qb = q * nc in
      if Bytes.unsafe_get status q = 'e' then begin
        let cid = Array.unsafe_get sp_cell q in
        if cid >= 0 then begin
          let sk = skew t cid in
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (period +. sk -. Array.unsafe_get sp_term (qb + k))
          done
        end
        else
          for k = 0 to nc - 1 do
            Array.unsafe_set tmp k (period -. Array.unsafe_get sp_term (qb + k))
          done
      end
      else
        for k = 0 to nc - 1 do
          Array.unsafe_set tmp k infinity
        done;
      for j = Array.unsafe_get su_row (2 * q) to Array.unsafe_get su_row ((2 * q) + 1) - 1 do
        let db = Array.unsafe_get su_dst j * nc in
        let b = j * nc in
        for k = 0 to nc - 1 do
          let r =
            pget req (db + k) -. Array.unsafe_get su_delay (b + k)
          in
          if r < Array.unsafe_get tmp k then Array.unsafe_set tmp k r
        done
      done;
      let moved = ref false in
      for k = 0 to nc - 1 do
        let v = Array.unsafe_get tmp k in
        if v <> pget req (qb + k) then begin
          moved := true;
          pset req (qb + k) v
        end
      done;
      if !moved then begin
        (match changed with Some v -> ivec_push v q | None -> ());
        for j = Array.unsafe_get pr_row (2 * q) to Array.unsafe_get pr_row ((2 * q) + 1) - 1 do
          Array.unsafe_set mark (Array.unsafe_get pr_src j) epoch
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
      (forward_scan t p ~seeds:(ivec_to_list p.st_pin) ~changed:None
         ~cancel:None);
    ignore
      (backward_scan t p ~seeds:(ivec_to_list p.ep_pin) ~changed:None
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
      topo_lo = 0;
      topo_hi = 0;
      topo_dead = 0;
      topo_pos = [||];
      skew_dense = [||];
      arrival = plane_make 0 neg_infinity;
      required = plane_make 0 infinity;
      plan = None;
      plan_dirty = Bytes.empty;
      dirty = ivec_create ();
      n_plan_builds = 0;
      n_plan_patches = 0;
      plan_srcs = ivec_create ();
      plan_flips = ivec_create ();
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
    let nc = Array.length t.corners in
    t.role <- grow_bytes t.role n';
    t.topo_pos <- grow_ints t.topo_pos n' (-1);
    (* the corner count is unchanged, so the interleaved prefix of the
       old plane is position-identical in the new one *)
    t.arrival <- grow_plane t.arrival (n' * nc) neg_infinity;
    t.required <- grow_plane t.required (n' * nc) infinity;
    (* the plan stays: the patch gives the new pins rows *)
    t.plan_dirty <- grow_bytes t.plan_dirty n';
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
   exceeds [rebuild_threshold] of the graph's pin count (a vanishing
   comb cell is fine: a subgraph of a DAG keeps the DAG's topological
   order). The estimate counts every pin of each dirty net (clock,
   reset and scan-enable nets included, whole), the pins of added,
   removed and retyped cells, and the placement revision delta, so a
   merge pass's batch, whose merges touch the clock and reset nets, can
   cross 0.6 and rebuild; a default ECO batch on D1 stays on the
   splice. *)
let rebuild_threshold = 0.6

let refresh t =
  let dsg_rev = Design.revision t.dsg in
  let pl_rev = Placement.revision t.pl in
  if dsg_rev = t.dsg_cursor && pl_rev = t.pl_cursor then ()
  else
    ignore
    @@ Mbr_obs.Trace.with_span_result ~name:"sta.refresh"
         ~args:[ ("n_pins", Mbr_obs.Trace.Int t.n) ]
         ~result_args:(function
           | Some d -> [ ("dirty_pins", Mbr_obs.Trace.Int d) ]
           | None -> [])
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
      t.net_seen <- grow_ints t.net_seen nn (-1);
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
      (* A marked pin seeds both scans, and the plan patch re-derives
         its arcs, status, launch base and setup term. A seeded pin only
         seeds the scans: its rows are current. Either lists the pin
         once. *)
      let mark pid =
        match Bytes.unsafe_get t.plan_dirty pid with
        | '\000' ->
          Bytes.unsafe_set t.plan_dirty pid '\002';
          ivec_push t.dirty pid
        | '\001' -> Bytes.unsafe_set t.plan_dirty pid '\002'
        | _ -> ()
      in
      let seed pid =
        if Bytes.unsafe_get t.plan_dirty pid = '\000' then begin
          Bytes.unsafe_set t.plan_dirty pid '\001';
          ivec_push t.dirty pid
        end
      in
      Mbr_obs.Trace.with_span ~name:"sta.splice" (fun () ->
      (* 1. removed cells leave the graph, their pins staying in the
         order as tombstones; the arcs they lose are read off the plan
         below, through the disconnects [remove_cell] logged for their
         connected pins *)
      List.iter
        (fun cid ->
          List.iter
            (fun pid ->
              if in_graph t pid then begin
                Bytes.unsafe_set t.role pid '\000';
                mark pid;
                if t.topo_pos.(pid) >= 0 then t.topo_dead <- t.topo_dead + 1;
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
         through it, depends on it. A comb driver's inputs see the new
         cell delays in their succ rows, which the driver's patch
         rewrites, and their requireds may move: they are seeded. *)
      let mark_load d =
        mark d;
        if Bytes.get t.role d = 'o' then ignore (in_arcs t d seed)
      in
      (* 4. rewired pins: the net arcs a pin had when the plan was last
         made are its succ row if it drives (its pred row is cell arcs
         or none) and its pred row if it loads; every in-graph end of
         such an arc is marked, as an arc that may have vanished. A
         pin that stays in the graph is marked too (its status follows
         its connectivity), and a driver's load changed. *)
      List.iter
        (fun pid ->
          let drives = (Design.pin t.dsg pid).Types.p_dir = Types.Output in
          let row, ends =
            if drives then (o.su_row, o.su_dst) else (o.pr_row, o.pr_src)
          in
          if pid < o.pl_n then
            for j = row.(2 * pid) to row.((2 * pid) + 1) - 1 do
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
         graph; once tombstones outnumber the live pins the order is
         laid out afresh *)
      if !new_pins <> [] then begin
        let sources, sinks =
          List.partition
            (fun pid -> (Design.pin t.dsg pid).Types.p_dir = Types.Output)
            !new_pins
        in
        topo_insert t sources sinks
      end;
      if 2 * t.topo_dead > t.topo_hi - t.topo_lo then
        Mbr_obs.Trace.with_span ~name:"sta.topo.compact" (fun () ->
            topo_relayout t 0));
      (* 7. numeric repair: both scans are seeded with every listed pin
         still in the graph (a pin recomputed from unchanged inputs
         keeps its bits, so a seed that needed only one direction costs
         a recompute, never a value), after the plan is patched in place
         at the marked pins (the skew sweeps and metrics that follow
         reuse it as-is). A pin is recomputed off its final predecessors
         and its cone chased only while values actually change. The seed
         count is the refresh span's [dirty_pins]. *)
      Mbr_obs.Trace.with_span ~name:"sta.repair" @@ fun () ->
      let seeds = ref [] and n_seeds = ref 0 in
      let d = t.dirty in
      for i = d.iv_len - 1 downto 0 do
        let pid = d.iv_a.(i) in
        if in_graph t pid then begin
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
      Mbr_obs.Metrics.incr m_refreshes;
      Some !n_seeds
    with Bail ->
      Mbr_obs.Metrics.incr m_rebuild_fallbacks;
      rebuild t;
      None

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
         startpoint or an endpoint, so the plan's start/endpoint table
         names its register; ports carry cell -1 there. *)
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
        if Bytes.get p.status pid <> '\000' then note p.sp_cell.(pid)
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

(* Fold [f] over the endpoints in ascending pin order: the analyzed
   plan's endpoint list. *)
let fold_endpoints t f acc =
  ensure t;
  (* an analyzed engine always holds its plan *)
  let ep = (Option.get t.plan).ep_pin in
  let acc = ref acc in
  for i = 0 to ep.iv_len - 1 do
    acc := f !acc ep.iv_a.(i)
  done;
  !acc

let endpoint_slacks t =
  List.rev
    (fold_endpoints t
       (fun acc pid ->
         match slack t pid with Some s -> (pid, s) :: acc | None -> acc)
       [])

(* Single endpoint sweep over the planes — no [endpoint_slacks] list is
   materialized. The fold visits the endpoints in ascending pin order,
   so the TNS float-summation order (and hence the bits) is the same
   on every path that reaches the same netlist. *)
let wns_tns t =
  let w = ref infinity and tn = ref 0.0 in
  fold_endpoints t
    (fun () pid ->
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
    ();
  (!w, !tn)

let wns t = fst (wns_tns t)

let tns t = snd (wns_tns t)

let corner_wns_tns t k =
  check_corner t "corner_wns_tns" k;
  let nc = Array.length t.corners in
  fold_endpoints t
    (fun (w, tn) pid ->
      let a = pget t.arrival ((pid * nc) + k)
      and r = pget t.required ((pid * nc) + k) in
      if a > neg_infinity && r < infinity then begin
        let s = r -. a in
        (Float.min w s, if s < 0.0 then tn +. s else tn)
      end
      else (w, tn))
    (infinity, 0.0)

let per_corner_wns_tns t =
  ensure t;
  Array.to_list
    (Array.mapi
       (fun k c ->
         let w, tn = corner_wns_tns t k in
         (c.Corner.name, w, tn))
       t.corners)

let failing_endpoints t =
  fold_endpoints t
    (fun acc pid -> if pin_worst_slack t pid < 0.0 then acc + 1 else acc)
    0

let n_endpoints t =
  ensure t;
  (Option.get t.plan).ep_pin.iv_len

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
