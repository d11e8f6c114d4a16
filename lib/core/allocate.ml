module Csr = Mbr_graph.Csr
module Kpart = Mbr_graph.Kpart
module Pool = Mbr_util.Pool
module Vec = Mbr_util.Vec
module Sp = Mbr_ilp.Set_partition

type config = { candidate : Candidate.config; partition_bound : int }

let default_config = { candidate = Candidate.default_config; partition_bound = 30 }

(* branch-and-bound cap per block *)
let node_limit = 300_000

type block_result = {
  chosen : Candidate.t list;
  block_cost : float;
  optimal : bool;
  block_candidates : int;
  solve_time_s : float;
}

type time_stats = { total_s : float; mean_s : float; max_s : float }

type selection = {
  merges : Candidate.t list;
  kept : int list;
  cost : float;
  n_blocks : int;
  n_candidates : int;
  all_optimal : bool;
  block_times : time_stats;
}

let singleton_of (infos : Compat.reg_info array) v =
  let info = infos.(v) in
  {
    Candidate.members = [ v ];
    member_cids = [ info.Compat.cid ];
    bits = info.Compat.bits;
    target_bits = info.Compat.bits;
    incomplete = false;
    weight = 1.0;
    region = info.Compat.feasible;
    func_class = info.Compat.func_class;
  }

(* The ILP path consumes the candidate stream directly: each candidate
   is appended to the problem's column vector as it is emitted, so the
   enumeration is never buffered as a separate list alongside the
   problem — the per-block vector the chosen indices resolve against is
   the only copy, and nothing outlives the block solve. *)
let solve_block_ilp ?cancel cfg (graph : Compat.graph) ~lib ~blockers block =
  (* element ids = positions of nodes within the block *)
  let pos = Hashtbl.create 32 in
  List.iteri (fun k v -> Hashtbl.replace pos v k) block;
  let cands = Vec.create () in
  Candidate.iter cfg.candidate graph ~block ~lib ~blockers (fun c ->
      ignore (Vec.push cands c));
  let n_cands = Vec.length cands in
  let problem =
    {
      Sp.n_elems = List.length block;
      candidates =
        Vec.map_to_array
          (fun (c : Candidate.t) ->
            {
              Sp.weight = c.Candidate.weight;
              elems = List.map (Hashtbl.find pos) c.Candidate.members;
            })
          cands;
    }
  in
  let result = Sp.solve ~node_limit ?cancel problem in
  match result.Sp.status with
  | Sp.Infeasible ->
    (* cannot happen when the enumeration emits every singleton; if it
       ever fires anyway, fall back to real "keep as-is" singletons
       built from the graph — never fabricated placeholders *)
    Logs.warn (fun m ->
        m "Allocate: set-partition ILP infeasible on a %d-node block; \
           keeping its registers unmerged"
          (List.length block));
    let keeps = List.map (singleton_of graph.Compat.infos) block in
    (keeps, float_of_int (List.length block), false, n_cands)
  | (Sp.Optimal | Sp.Feasible) when result.Sp.chosen = [] && block <> [] ->
    (* a node-limited solve that never reached a full cover: the kernel
       seeds a greedy incumbent so this is near-unreachable, but a
       [Feasible] with nothing chosen must not silently drop the
       block's registers *)
    Logs.warn (fun m ->
        m "Allocate: set-partition ILP returned no cover on a %d-node \
           block (node limit %d); keeping its registers unmerged"
          (List.length block) node_limit);
    let keeps = List.map (singleton_of graph.Compat.infos) block in
    (keeps, float_of_int (List.length block), false, n_cands)
  | Sp.Optimal | Sp.Feasible ->
    ( List.map (Vec.get cands) result.Sp.chosen,
      result.Sp.cost,
      result.Sp.status = Sp.Optimal,
      n_cands )

(* Greedy weighted set-partitioning on the same candidate set as the
   ILP: repeatedly commit the disjoint candidate with the best
   weight-per-register share. This is the heuristic allocator Fig. 6
   compares the ILP against — same formulation, no global optimization. *)
let solve_block_share cands =
  let order =
    List.sort
      (fun (a : Candidate.t) (b : Candidate.t) ->
        compare
          (a.Candidate.weight /. float_of_int (List.length a.Candidate.members),
           a.Candidate.weight)
          (b.Candidate.weight /. float_of_int (List.length b.Candidate.members),
           b.Candidate.weight))
      cands
  in
  let taken = Hashtbl.create 32 in
  let chosen =
    List.filter
      (fun (c : Candidate.t) ->
        let free =
          List.for_all (fun v -> not (Hashtbl.mem taken v)) c.Candidate.members
        in
        if free then
          List.iter (fun v -> Hashtbl.replace taken v ()) c.Candidate.members;
        free)
      order
  in
  let cost =
    List.fold_left (fun acc (c : Candidate.t) -> acc +. c.Candidate.weight) 0.0 chosen
  in
  (* a greedy pick is never a proof of optimality *)
  (chosen, cost, false)

(* The external [8]/[12]-style heuristic: maximal-clique merging on the
   raw compatibility subgraph (see Baseline), converted into the same
   selection shape the ILP path produces. *)
let solve_block_greedy (graph : Compat.graph) lib block =
  let infos = graph.Compat.infos in
  let groups = Baseline.solve_block graph ~block ~lib in
  let taken = Hashtbl.create 32 in
  let to_candidate group =
    List.iter (fun v -> Hashtbl.replace taken v ()) group;
    let bits = List.fold_left (fun acc v -> acc + infos.(v).Compat.bits) 0 group in
    let region =
      match
        Mbr_geom.Rect.inter_all (List.map (fun v -> infos.(v).Compat.feasible) group)
      with
      | Some r -> r
      | None -> infos.(List.nth group 0).Compat.feasible
    in
    {
      Candidate.members = List.sort compare group;
      member_cids = List.map (fun v -> infos.(v).Compat.cid) (List.sort compare group);
      bits;
      target_bits = bits;
      incomplete = false;
      weight = 1.0 /. float_of_int bits;
      region;
      func_class = infos.(List.nth group 0).Compat.func_class;
    }
  in
  let merges = List.map to_candidate groups in
  let singles =
    List.filter_map
      (fun v -> if Hashtbl.mem taken v then None else Some (singleton_of infos v))
      block
  in
  let all = merges @ singles in
  let cost =
    List.fold_left (fun acc (c : Candidate.t) -> acc +. c.Candidate.weight) 0.0 all
  in
  (all, cost, false)

let mode_name = function
  | `Ilp -> "ilp"
  | `Greedy_share -> "greedy-share"
  | `Clique -> "clique"

(* Per-block solve times feed a histogram rather than a gauge: the max
   bin is the parallel critical path, the spread says whether the
   partition bound balances the blocks. *)
let h_solve_s = Mbr_obs.Metrics.histogram "alloc.block_solve_s"

let m_cache_hit = Mbr_obs.Metrics.counter "alloc.cache.hit"

let m_cache_miss = Mbr_obs.Metrics.counter "alloc.cache.miss"

let solve_block ?(block_id = -1)
    ?(mode : [ `Ilp | `Greedy_share | `Clique ] = `Ilp) ?cancel config graph
    ~lib ~blockers ~block =
  (* [timed_span] hands back the duration measured by the same pair of
     clock reads that bound the trace span, so [solve_time_s] and the
     trace agree exactly (and no wall-clock syscall pair remains). *)
  let (chosen, block_cost, optimal, block_candidates), solve_time_s =
    Mbr_obs.Trace.timed_span ~name:"alloc.solve_block"
      ~args:
        [
          ("block", Mbr_obs.Trace.Int block_id);
          ("size", Mbr_obs.Trace.Int (List.length block));
          ("mode", Mbr_obs.Trace.Str (mode_name mode));
        ]
      (fun () ->
        match mode with
        | `Ilp -> solve_block_ilp ?cancel config graph ~lib ~blockers block
        | `Greedy_share ->
          let cands =
            Candidate.enumerate config.candidate graph ~block ~lib ~blockers
          in
          let n = List.length cands in
          let chosen, cost, opt = solve_block_share cands in
          (chosen, cost, opt, n)
        | `Clique ->
          let chosen, cost, opt = solve_block_greedy graph lib block in
          (chosen, cost, opt, 0))
  in
  Mbr_obs.Metrics.observe h_solve_s solve_time_s;
  { chosen; block_cost; optimal; block_candidates; solve_time_s }

let reduce ~mode results =
  (* Fold in block (array) order: exactly the additions and consing of
     the serial loop, so the selection is independent of how the block
     results were computed. *)
  let merges = ref [] in
  let kept = ref [] in
  let cost = ref 0.0 in
  let n_candidates = ref 0 in
  let all_optimal = ref true in
  let total_s = ref 0.0 in
  let max_s = ref 0.0 in
  Array.iter
    (fun r ->
      cost := !cost +. r.block_cost;
      n_candidates := !n_candidates + r.block_candidates;
      if not r.optimal then all_optimal := false;
      total_s := !total_s +. r.solve_time_s;
      if r.solve_time_s > !max_s then max_s := r.solve_time_s;
      List.iter
        (fun (c : Candidate.t) ->
          match c.Candidate.members with
          | [ v ] -> kept := v :: !kept
          | _ -> merges := c :: !merges)
        r.chosen)
    results;
  let n_blocks = Array.length results in
  {
    merges = List.rev !merges;
    kept = List.sort compare !kept;
    cost = !cost;
    n_blocks;
    n_candidates = !n_candidates;
    (* the heuristic modes never prove optimality, even over zero
       blocks *)
    all_optimal =
      (match mode with
      | `Ilp -> !all_optimal
      | `Greedy_share | `Clique -> false);
    block_times =
      {
        total_s = !total_s;
        mean_s = (if n_blocks = 0 then 0.0 else !total_s /. float_of_int n_blocks);
        max_s = !max_s;
      };
  }

let partition_blocks config (graph : Compat.graph) =
  let infos = graph.Compat.infos in
  let position i = infos.(i).Compat.center in
  Array.of_list
    (Kpart.partition ~bound:config.partition_bound graph.Compat.adj ~position)

(* Claim order for the parallel fan-out: largest predicted solve first.
   Block solve time is driven by the candidate enumeration, which grows
   with the block's size and in-block compatibility density, so the key
   is (size, in-block edges) descending — ascending block index breaks
   ties to keep the order reproducible. Scheduling the expensive blocks
   first stops a whale claimed last from serializing the tail of the
   run; results are slot-placed, so the selection is unchanged. *)
let schedule_order (graph : Compat.graph) blocks =
  let nb = Array.length blocks in
  let key =
    Array.map
      (fun block ->
        let arr = Array.of_list block in
        let m = Array.length arr in
        let edges = ref 0 in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            if Csr.has_edge graph.Compat.adj arr.(i) arr.(j) then incr edges
          done
        done;
        (m, !edges))
      blocks
  in
  let order = Array.init nb Fun.id in
  Array.sort
    (fun a b ->
      let c = compare key.(b) key.(a) in
      if c <> 0 then c else compare a b)
    order;
  order

type cache = { mutable table : (string, block_result) Hashtbl.t }

let create_cache () = { table = Hashtbl.create 64 }

let cache_size cache = Hashtbl.length cache.table

type cache_stats = { blocks_resolved : int; blocks_reused : int }

(* Everything [solve_block] reads about a block, serialized: the mode,
   the candidate/solver knobs, the member snapshots in block order, the
   in-block adjacency as member positions, and the block's blocker
   entries ([Candidate.blockers]: the union bbox of the members'
   footprints, which holds every test polygon's bbox), sorted. Two
   blocks with equal keys are solved identically up to node
   renumbering, which member cids undo. The library is deliberately
   absent: it is immutable and fixed for the life of a session's
   cache. *)
let block_key ~(mode : [ `Ilp | `Greedy_share | `Clique ]) config
    (graph : Compat.graph) ~blockers ~block =
  let infos = graph.Compat.infos in
  let member_infos = List.map (fun v -> infos.(v)) block in
  let arr = Array.of_list block in
  let m = Array.length arr in
  let adj = ref [] in
  for i = m - 1 downto 0 do
    for j = m - 1 downto i + 1 do
      if Csr.has_edge graph.Compat.adj arr.(i) arr.(j) then adj := (i, j) :: !adj
    done
  done;
  Marshal.to_string
    ( mode,
      config.candidate,
      member_infos,
      !adj,
      List.sort compare blockers )
    [ Marshal.No_sharing ]

(* A cached cover is valid for a new graph revision modulo node
   renumbering; cids are stable across revisions and the cid -> node
   map is monotone, so remapped member lists stay sorted. *)
let remap_result cid_ix r =
  {
    r with
    chosen =
      List.map
        (fun (c : Candidate.t) ->
          {
            c with
            Candidate.members =
              List.map (Hashtbl.find cid_ix) c.Candidate.member_cids;
          })
        r.chosen;
  }

let run_cached ?(mode : [ `Ilp | `Greedy_share | `Clique ] = `Ilp)
    ?(config = default_config) ?(jobs = 1) ?cancel cache graph ~lib
    ~blocker_index =
  if
    config.partition_bound < 1
    || config.partition_bound > Candidate.max_block_size
  then
    invalid_arg
      (Printf.sprintf "Allocate.run_cached: partition_bound %d outside [1, %d]"
         config.partition_bound Candidate.max_block_size);
  let blocks = partition_blocks config graph in
  let nb = Array.length blocks in
  (* one blocker query per block, shared by its cache key and its solve *)
  let blockers =
    Array.map (fun block -> Candidate.blockers graph ~block blocker_index) blocks
  in
  let keys =
    Array.mapi
      (fun i block -> block_key ~mode config graph ~blockers:blockers.(i) ~block)
      blocks
  in
  let infos = graph.Compat.infos in
  let cid_ix = Hashtbl.create (max 16 (Array.length infos)) in
  Array.iteri
    (fun i (info : Compat.reg_info) -> Hashtbl.replace cid_ix info.Compat.cid i)
    infos;
  let results = Array.make nb None in
  let misses = ref [] in
  for i = nb - 1 downto 0 do
    match Hashtbl.find_opt cache.table keys.(i) with
    | Some r -> results.(i) <- Some (remap_result cid_ix r)
    | None -> misses := i :: !misses
  done;
  let miss_idx = Array.of_list !misses in
  Mbr_obs.Metrics.incr ~by:(nb - Array.length miss_idx) m_cache_hit;
  Mbr_obs.Metrics.incr ~by:(Array.length miss_idx) m_cache_miss;
  let solve i =
    (* one token, every worker: the flag is atomic, so a single cancel
       winds down the whole fan-out at each block's next search node *)
    solve_block ~block_id:i ~mode ?cancel config graph ~lib
      ~blockers:blockers.(i) ~block:blocks.(i)
  in
  let solved =
    (* jobs = 1: the serial code path, no pool involved *)
    if jobs <= 1 then Array.map solve miss_idx
    else
      let miss_blocks = Array.map (fun i -> blocks.(i)) miss_idx in
      Pool.map_array ~jobs
        ~order:(schedule_order graph miss_blocks)
        solve miss_idx
  in
  Array.iteri (fun k i -> results.(i) <- Some solved.(k)) miss_idx;
  let results =
    Array.map (function Some r -> r | None -> assert false) results
  in
  (* Generational eviction: the next table holds exactly this run's
     blocks, so results for regions the design has since drifted away
     from do not accumulate across a long session. A cancelled run
     skips the swap entirely: its incumbents are time-dependent (where
     the token tripped), and a cached entry must mean "the
     deterministic result at the node limit" — so the previous
     generation stays, and the next uncancelled run repairs coverage. *)
  let tripped =
    match cancel with Some t -> Mbr_util.Cancel.cancelled t | None -> false
  in
  if not tripped then begin
    let next = Hashtbl.create (max 64 nb) in
    Array.iteri (fun i key -> Hashtbl.replace next key results.(i)) keys;
    cache.table <- next
  end;
  ( reduce ~mode results,
    {
      blocks_resolved = Array.length miss_idx;
      blocks_reused = nb - Array.length miss_idx;
    } )
