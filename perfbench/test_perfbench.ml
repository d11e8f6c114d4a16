(* Tests of the benchmark itself: its arithmetic (tail rule, self time,
   ratios), its seed determinism, and that BENCHMARK.json lists exactly
   the metrics the command prints. *)

module A = Perfbench.Arith
module S = Perfbench.Schema
module W = Perfbench.Workload
module L = Perfbench.Layers
module R = Perfbench.Report
module J = Mbr_obs.Json

let feq = Alcotest.float 1e-9

(* ---- the tail rule ---- *)

let test_tail_rule () =
  for n = 1 to 21 do
    Alcotest.(check bool)
      (Printf.sprintf "no tail at %d ops" n)
      true
      (A.tail (Array.init n float_of_int) = None)
  done;
  List.iter
    (fun n ->
      (* latencies n..1, slowest first: the tail is the (n-10)-th smallest *)
      let xs = Array.init n (fun i -> float_of_int (n - i)) in
      match A.tail xs with
      | None -> Alcotest.failf "tail expected at %d ops" n
      | Some t ->
        Alcotest.(check int) "ops beyond" 10 t.A.beyond;
        Alcotest.(check int) "n" n t.A.n;
        Alcotest.check feq "value" (float_of_int (n - 10)) t.A.value;
        Alcotest.check feq "percentile" (100.0 *. float_of_int (n - 10) /. float_of_int n) t.A.pct;
        Alcotest.(check bool) "beyond the median" true (t.A.value > A.median xs);
        let slower = Array.fold_left (fun c x -> if x > t.A.value then c + 1 else c) 0 xs in
        Alcotest.(check int) "ops slower than the tail" 10 slower)
    [ 22; 30; 41; 100; 1000 ];
  match A.tail (Array.init 100 float_of_int) with
  | Some t -> Alcotest.check feq "100 ops: p90" 90.0 t.A.pct
  | None -> Alcotest.fail "tail"

(* ---- self time ---- *)

let test_self_time () =
  Alcotest.check feq "no children" 10.0 (A.self_time ~start:0.0 ~stop:10.0 []);
  Alcotest.check feq "disjoint children" 5.0
    (A.self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (5.0, 8.0) ]);
  Alcotest.check feq "overlapping children count once" 4.0
    (A.self_time ~start:0.0 ~stop:10.0 [ (1.0, 5.0); (3.0, 7.0) ]);
  Alcotest.check feq "nested children count once" 6.0
    (A.self_time ~start:0.0 ~stop:10.0 [ (2.0, 6.0); (3.0, 4.0) ]);
  Alcotest.check feq "children clipped to the parent" 7.0
    (A.self_time ~start:0.0 ~stop:10.0 [ (-5.0, 1.0); (8.0, 20.0) ])

let event name ph ts tid =
  J.Obj [ ("name", J.Str name); ("ph", J.Str ph); ("ts", J.Num ts); ("tid", J.Num tid) ]

let test_spans_of_trace () =
  (* op [0,100] > stage a [10,40] > leaf [20,30]; stage b [50,90];
     another thread's span overlaps but is not a child *)
  let trace =
    J.Obj
      [
        ( "traceEvents",
          J.Arr
            [
              event "op" "B" 0.0 0.0; event "a" "B" 10.0 0.0; event "other" "B" 15.0 1.0;
              event "leaf" "B" 20.0 0.0; event "leaf" "E" 30.0 0.0; event "a" "E" 40.0 0.0;
              event "b" "B" 50.0 0.0; event "other" "E" 60.0 1.0; event "b" "E" 90.0 0.0;
              event "op" "E" 100.0 0.0;
            ] );
      ]
  in
  let spans = A.spans_of_trace trace in
  Alcotest.(check int) "spans" 5 (Array.length spans);
  let self = A.self_times spans in
  let self_of name =
    let r = ref nan in
    Array.iteri (fun i (s : A.span) -> if s.A.name = name then r := self.(i)) spans;
    !r
  in
  Alcotest.check feq "op self" 30.0 (self_of "op");
  Alcotest.check feq "a self" 20.0 (self_of "a");
  Alcotest.check feq "leaf self" 10.0 (self_of "leaf");
  Alcotest.check feq "other thread untouched" 45.0 (self_of "other");
  let sm = L.from_spans ~is_op:(fun _ s -> s.A.name = "op") spans in
  Alcotest.check feq "op time" 100e-6 (List.assoc "trace.op_s" sm.L.values);
  (* "a" and "b" are not stage names, so the whole op is unstaged *)
  Alcotest.check feq "unstaged" 100e-6 (List.assoc "core.unstaged_s" sm.L.values)

(* ---- ratios ---- *)

let test_ratios_have_bases () =
  let names = List.map (fun m -> m.S.name) S.per_layer in
  List.iter
    (fun (r, num, den) ->
      Alcotest.(check bool) (r ^ " is a per-layer metric") true (List.mem r names);
      List.iter
        (fun b -> Alcotest.(check bool) (r ^ ": base " ^ b ^ " is printed") true (List.mem b names))
        (num @ den))
    S.ratios;
  let values =
    [
      ("compat.edges_copied", 30.0); ("compat.pairs_checked", 10.0);
      ("alloc.cache.hits", 1.0); ("alloc.cache.misses", 3.0);
      ("core.allocate_s", 2.0); ("core.merge_s", 0.5); ("dft.scan_restitch_s", 0.5);
      ("trace.op_s", 4.0); ("trace.p50_traced_ms", 11.0); ("trace.p50_untraced_ms", 10.0);
    ]
  in
  let t = L.table values in
  Alcotest.(check int) "every per-layer metric present" (List.length S.per_layer) (List.length t);
  Alcotest.check feq "reuse" 0.75 (List.assoc "compat.reuse_ratio" t);
  Alcotest.check feq "hit ratio" 0.25 (List.assoc "alloc.cache.hit_ratio" t);
  Alcotest.check feq "allocate share" 0.5 (List.assoc "core.allocate_share" t);
  Alcotest.check feq "merge+scan share" 0.25 (List.assoc "core.merge_scan_share" t);
  Alcotest.check feq "overhead" 1.1 (List.assoc "trace.overhead_ratio" t);
  Alcotest.check feq "zero base reads 0" 0.0 (A.ratio ~num:1.0 ~den:0.0)

(* ---- drift guard ----

   BENCHMARK.json must list exactly what the command prints: the
   end-to-end result (Report.end_to_end) and the per-layer table
   (Layers.table), in order, with the schema's units and directions. *)

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_benchmark_json () =
  (* under dune test the cwd is the build copy of this directory *)
  let path = if Sys.file_exists "../BENCHMARK.json" then "../BENCHMARK.json" else "BENCHMARK.json" in
  let j = J.of_string (read_file path) in
  let list k = Option.value (Option.bind (J.member k j) J.to_list) ~default:[] in
  let str k o = Option.value (Option.bind (J.member k o) J.to_str) ~default:"" in
  let triples k =
    List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list k)
  in
  let of_schema ms =
    List.map (fun m -> (m.S.name, m.S.unit_, S.better_to_string m.S.better)) ms
  in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end" (of_schema S.end_to_end) (triples "end_to_end");
  Alcotest.check t3 "per_layer" (of_schema S.per_layer) (triples "per_layer");
  let names k = List.map (fun (n, _, _) -> n) (triples k) in
  let _, e2e =
    R.end_to_end
      { R.lat_s = Array.make 30 0.01; setup_s = [| 1.0 |]; segments = [| (30, 0.3) |] }
      ~rss_mb:1.0 ~qor:W.qor0
  in
  Alcotest.(check (list string)) "end-to-end names printed" (names "end_to_end") (List.map fst e2e);
  Alcotest.(check (list string)) "per-layer names printed" (names "per_layer") (List.map fst (L.table []));
  Alcotest.(check (list string)) "workloads" S.workloads (List.map (str "name") (list "workloads"));
  List.iter
    (fun o ->
      let b = Option.value (Option.bind (J.member "bound" o) J.to_float) ~default:nan in
      Alcotest.(check bool) (str "name" o ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25))
    (list "end_to_end")

(* ---- seed determinism ---- *)

let compose seed =
  W.compose_mix
    ~profiles:Mbr_designgen.Profile.[ d1; d2; d4 ]
    ~seed ~rotations:2 ~scale:0.06 ()

let eco seed = W.eco_d1 ~dir:"." ~seed ~episodes:3 ~rounds:2 ~scale:0.08 ()

let same_outputs what (a : W.run) (b : W.run) =
  Alcotest.(check int) (what ^ ": ops") (Array.length a.W.latencies_s) (Array.length b.W.latencies_s);
  Alcotest.(check int) (what ^ ": failed") 0 (a.W.failed + b.W.failed);
  Alcotest.(check string) (what ^ ": inputs") a.W.inputs b.W.inputs;
  Alcotest.(check int) (what ^ ": regs") a.W.qor.W.regs b.W.qor.W.regs;
  Alcotest.(check (float 0.0)) (what ^ ": clk cap") a.W.qor.W.clk_cap b.W.qor.W.clk_cap;
  Alcotest.(check (float 0.0)) (what ^ ": tns") a.W.qor.W.tns b.W.qor.W.tns;
  Alcotest.(check (float 0.0)) (what ^ ": wl") a.W.qor.W.wl b.W.qor.W.wl

(* The suites are fixed and the seed orders them, so QoR sums repeat
   for every seed while the input sequence differs. *)
let test_seed_determinism () =
  List.iter
    (fun (what, run) ->
      let a = run 5 and b = run 5 in
      same_outputs what a b;
      let others = List.map run [ 6; 7 ] in
      Alcotest.(check bool) (what ^ ": other seeds, other input orders") true
        (List.exists (fun (c : W.run) -> c.W.inputs <> a.W.inputs) others);
      List.iter (fun c -> Alcotest.(check int) (what ^ ": same suite") a.W.qor.W.regs c.W.qor.W.regs) others)
    [ ("compose_mix", compose); ("eco_d1", eco) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "spans of a trace" `Quick test_spans_of_trace;
          Alcotest.test_case "ratios print their bases" `Quick test_ratios_have_bases;
        ] );
      ("schema", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]);
      ("workloads", [ Alcotest.test_case "seed determinism" `Slow test_seed_determinism ]);
    ]
