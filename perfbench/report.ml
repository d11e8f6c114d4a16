(* The end-to-end result of a run. Its values are built by walking
   Schema.end_to_end, so the command prints exactly the names (and,
   through the schema, the units and directions) BENCHMARK.json lists;
   a schema name this module has no value for raises. *)

module A = Arith

(* The timed quantities of a run. *)
type timing = {
  lat_s : float array;  (** one per op *)
  setup_s : float array;  (** one per set-up repetition *)
  segments : (int * float) array;  (** (ops, wall) per timed segment *)
}

let end_to_end t ~rss_mb ~(qor : Workload.qor) =
  let ms = Array.map (fun x -> x *. 1000.0) t.lat_s in
  let tail = A.tail ms in
  let value = function
    | "setup_s" -> A.median t.setup_s
    | "latency_p50_ms" -> A.median ms
    | "latency_tail_ms" -> ( match tail with Some t -> t.A.value | None -> 0.0)
    | "throughput_per_s" ->
      A.median (Array.map (fun (n, wall) -> float n /. wall) t.segments)
    | "peak_rss_mb" -> rss_mb
    | "regs_after" -> float qor.Workload.regs
    | "clk_cap_after_ff" -> qor.Workload.clk_cap
    | "tns_after_ps" -> qor.Workload.tns
    | "signal_wl_after_um" -> qor.Workload.wl
    | name -> invalid_arg ("Report.end_to_end: no value for " ^ name)
  in
  (tail, List.map (fun (m : Schema.metric) -> (m.Schema.name, value m.Schema.name)) Schema.end_to_end)
