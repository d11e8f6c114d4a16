(* The benchmark's metric vocabulary: every name the command can print,
   with its unit and direction. BENCHMARK.json at the repository root
   lists exactly these (the drift-guard test compares the two). *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let m ?(better = Lower) name unit_ = { name; unit_; better }

let workloads = [ "compose_mix"; "eco_d1"; "svc_mix" ]

(* Printed by every run with --trace 0. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "latency_p50_ms" "ms";
    m "latency_tail_ms" "ms";
    m ~better:Higher "throughput_per_s" "ops/s";
    m "peak_rss_mb" "MB";
    m "regs_after" "count";
    m "clk_cap_after_ff" "fF";
    m ~better:Higher "tns_after_ps" "ps";
    m "signal_wl_after_um" "um";
  ]

let service_verbs = [ "perturb"; "recompose"; "query-metrics"; "telemetry" ]

(* Printed by every run with --trace 1. A layer a workload does not
   exercise reads 0 there (no service traffic in-process, for one). *)
let per_layer =
  [
    m "designgen.generate_s" "s";
    m "designgen.perturb_ms" "ms";
    m "sta.build_s" "s";
    m "sta.refresh_s" "s";
    m "sta.skew_s" "s";
    m "sta.refreshes" "count";
    m "sta.dirty_pins" "count";
    m "sta.rebuild_fallbacks" "count";
    m "sta.skew.frontier_pins" "count";
    m "sta.skew.level_passes" "count";
    m "core.metrics_s" "s";
    m "core.compat_s" "s";
    m "compat.pairs_checked" "count";
    m "compat.nodes_dirty" "count";
    m ~better:Higher "compat.edges_copied" "count";
    m ~better:Higher "compat.reuse_ratio" "ratio";
    m "core.allocate_s" "s";
    m "core.alloc.blocks" "count";
    m "core.alloc.candidates" "count";
    m "core.alloc.block_max_s" "s";
    m ~better:Higher "alloc.cache.hits" "count";
    m "alloc.cache.misses" "count";
    m ~better:Higher "alloc.cache.hit_ratio" "ratio";
    m "ilp.solve_s" "s";
    m "ilp.solves" "count";
    m "ilp.bb_nodes" "count";
    m "ilp.node_limit_hits" "count";
    m ~better:Higher "ilp.dominated_pruned" "count";
    m "lp.simplex_pivots" "count";
    m "core.merge_s" "s";
    m "dft.scan_restitch_s" "s";
    m "core.blocker_index_s" "s";
    m "core.resize_s" "s";
    m "core.unstaged_s" "s";
    m "trace.op_s" "s";
    m "core.allocate_share" "ratio";
    m "core.merge_scan_share" "ratio";
  ]
  @ List.map (fun v -> m ("service.rtt_ms." ^ v) "ms") service_verbs
  @ List.map (fun v -> m ("service.server_ms." ^ v) "ms") service_verbs
  @ [
      m "service.flow_ms" "ms";
      m "service.queue_wait_ms" "ms";
      m "service.wire_ms" "ms";
      m "svc.errors" "count";
      m "svc.overloaded" "count";
      m "svc.cancelled" "count";
      m "svc.exec.queue_depth_max" "count";
      m "gc.minor_words_per_op" "words";
      m "gc.major_words_per_op" "words";
      m "gc.major_collections" "count";
      m "gc.compactions" "count";
      m "trace.p50_untraced_before_ms" "ms";
      m "trace.p50_untraced_after_ms" "ms";
      m "trace.p50_untraced_ms" "ms";
      m "trace.p50_traced_ms" "ms";
      m "trace.overhead_ratio" "ratio";
      m "trace.dropped" "count";
    ]

(* Every ratio as (name, numerator terms, denominator terms): its value
   is sum(num) / sum(den) over metrics that are themselves printed, so
   each ratio appears next to its bases. *)
let ratios =
  [
    ( "compat.reuse_ratio",
      [ "compat.edges_copied" ],
      [ "compat.edges_copied"; "compat.pairs_checked" ] );
    ( "alloc.cache.hit_ratio",
      [ "alloc.cache.hits" ],
      [ "alloc.cache.hits"; "alloc.cache.misses" ] );
    ("core.allocate_share", [ "core.allocate_s" ], [ "trace.op_s" ]);
    ( "core.merge_scan_share",
      [ "core.merge_s"; "dft.scan_restitch_s" ],
      [ "trace.op_s" ] );
    ( "trace.overhead_ratio",
      [ "trace.p50_traced_ms" ],
      [ "trace.p50_untraced_ms" ] );
  ]

let find name metrics = List.find_opt (fun x -> x.name = name) metrics
