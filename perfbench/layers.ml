(* Per-layer metrics of a traced phase, computed only from what the
   layers publish: their trace spans (stages, flow.recompose,
   alloc.solve_block, ilp.solve, svc.<verb>) and the Metrics registry
   counters. Used for the in-process workloads and, from the daemon's
   exported trace and query-metrics snapshot, for svc_mix. *)

module A = Arith

(* layer metric -> the Flow stages (span names) it sums *)
let stage_metrics =
  [
    ("sta.refresh_s", [ "eco-reset" ]);
    ("sta.skew_s", [ "skew" ]);
    ("core.metrics_s", [ "metrics-before"; "metrics-after" ]);
    ("core.compat_s", [ "compat-graph" ]);
    ("core.allocate_s", [ "allocate" ]);
    ("core.merge_s", [ "merge" ]);
    ("dft.scan_restitch_s", [ "scan-restitch" ]);
    ("core.blocker_index_s", [ "blocker-index" ]);
    ("core.resize_s", [ "resize" ]);
  ]

let stage_names =
  [
    "eco-reset"; "metrics-before"; "decompose"; "compat-graph"; "blocker-index";
    "allocate"; "merge"; "scan-restitch"; "skew"; "resize"; "metrics-after";
  ]

(* registry counter -> layer metric *)
let counter_metrics =
  [
    ("sta.refreshes", "sta.refreshes");
    ("sta.dirty_pins", "sta.dirty_pins");
    ("sta.rebuild_fallbacks", "sta.rebuild_fallbacks");
    ("sta.skew.frontier_pins", "sta.skew.frontier_pins");
    ("sta.skew.level_passes", "sta.skew.level_passes");
    ("compat.pairs_checked", "compat.pairs_checked");
    ("compat.nodes_dirty", "compat.nodes_dirty");
    ("compat.edges_copied", "compat.edges_copied");
    ("alloc.cache.hit", "alloc.cache.hits");
    ("alloc.cache.miss", "alloc.cache.misses");
    ("ilp.solves", "ilp.solves");
    ("ilp.bb_nodes", "ilp.bb_nodes");
    ("ilp.node_limit_hits", "ilp.node_limit_hits");
    ("ilp.dominated_pruned", "ilp.dominated_pruned");
    ("lp.simplex_pivots", "lp.simplex_pivots");
    ("svc.errors", "svc.errors");
    ("svc.overloaded", "svc.overloaded");
    ("svc.cancelled", "svc.cancelled");
  ]

let counters_of (delta : Mbr_obs.Metrics.snapshot) =
  List.map
    (fun (reg, name) ->
      ( name,
        float_of_int
          (Option.value (List.assoc_opt reg delta.Mbr_obs.Metrics.counters) ~default:0) ))
    counter_metrics

(* Span-derived metrics. [is_op index span] picks the spans that are
   one op each;
   stage time counts only inside ops (a warm-up compose is set-up).
   [self_us] pairs every span name with its total self time, for the
   printed breakdown. *)
type span_metrics = {
  values : (string * float) list;
  self_us : (string * float) list;
}

let from_spans ~is_op (spans : A.span array) =
  let n = Array.length spans in
  (* parents precede children in open order, so one pass finds each
     span's enclosing op *)
  let op_of = Array.make n (-1) in
  Array.iteri
    (fun i (s : A.span) ->
      op_of.(i) <-
        (if is_op i s then i else if s.A.parent >= 0 then op_of.(s.A.parent) else -1))
    spans;
  let in_ops name =
    let t = ref 0.0 in
    Array.iteri
      (fun i (s : A.span) -> if op_of.(i) >= 0 && s.A.name = name then t := !t +. A.dur_us s)
      spans;
    !t *. 1e-6
  in
  let stage_cover = Array.make n [] in
  Array.iteri
    (fun i (s : A.span) ->
      if op_of.(i) >= 0 && List.mem s.A.name stage_names then
        stage_cover.(op_of.(i)) <- (s.A.start_us, s.A.stop_us) :: stage_cover.(op_of.(i)))
    spans;
  let op_s = ref 0.0 and unstaged = ref 0.0 in
  Array.iteri
    (fun i (s : A.span) ->
      if op_of.(i) = i then begin
        op_s := !op_s +. (A.dur_us s *. 1e-6);
        unstaged :=
          !unstaged
          +. (A.self_time ~start:s.A.start_us ~stop:s.A.stop_us stage_cover.(i) *. 1e-6)
      end)
    spans;
  let selfs = A.self_times spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i (s : A.span) ->
      if op_of.(i) >= 0 then
        Hashtbl.replace tbl s.A.name
          (selfs.(i) +. Option.value (Hashtbl.find_opt tbl s.A.name) ~default:0.0))
    spans;
  {
    values =
      List.map
        (fun (metric, stages) ->
          (metric, List.fold_left (fun acc st -> acc +. in_ops st) 0.0 stages))
        stage_metrics
      @ [
          ("ilp.solve_s", in_ops "ilp.solve");
          ("trace.op_s", !op_s);
          ("core.unstaged_s", !unstaged);
        ];
    self_us =
      List.sort (fun (_, a) (_, b) -> Float.compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
  }

(* Complete per-layer table in Schema order: [values] fills what the
   workload measured, everything else reads 0, ratios are recomputed
   from their bases. *)
let table values =
  A.with_ratios
    (List.map
       (fun (m : Schema.metric) ->
         (m.Schema.name, Option.value (List.assoc_opt m.Schema.name values) ~default:0.0))
       Schema.per_layer)
