(* Tests for Mbr_core.Candidate enumeration on hand-built compatibility
   graphs: validity rules (library widths, incomplete area rule, region
   intersection), dedup, caps, and the structured path for big blocks. *)

module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Spatial = Mbr_core.Spatial
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Csr = Mbr_graph.Csr
module Presets = Mbr_liberty.Presets

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let lib = Presets.default ()

(* a row of n 1-bit dff registers, all mutually compatible, 3um apart *)
let row_graph ?(bits = 1) ?(feas = 20.0) n =
  let infos =
    Array.init n (fun i ->
        let x = 3.0 *. float_of_int i in
        let footprint = Rect.make ~lx:x ~ly:0.0 ~hx:(x +. 1.4) ~hy:1.2 in
        Compat.
          {
            cid = i;
            bits;
            func_class = "dff";
            clock = 0;
            enable = None;
            reset = None;
            scan = None;
            drive_res = 2.0;
            d_slack = 50.0;
            q_slack = 50.0;
            footprint;
            feasible = Rect.expand footprint feas;
            center = Rect.center footprint;
          })
  in
  let g = Csr.Builder.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Csr.Builder.add_edge g i j
    done
  done;
  { Compat.adj = Csr.Builder.finish g; infos }

let index_of graph =
  let idx = Spatial.create () in
  Array.iter
    (fun i -> Spatial.add idx i.Compat.cid i.Compat.center)
    graph.Compat.infos;
  idx

let enumerate ?(cfg = Candidate.default_config) graph =
  let block = List.init (Array.length graph.Compat.infos) Fun.id in
  Candidate.enumerate cfg graph ~block ~lib
    ~blockers:(Candidate.blockers graph ~block (index_of graph))

let members_sets cands = List.map (fun c -> c.Candidate.members) cands

let test_singletons_always_present () =
  let graph = row_graph 4 in
  let cands = enumerate graph in
  for i = 0 to 3 do
    check "singleton present" true (List.mem [ i ] (members_sets cands))
  done

let test_valid_widths_only () =
  let graph = row_graph 5 in
  let cands = enumerate ~cfg:{ Candidate.default_config with Candidate.allow_incomplete = false } graph in
  List.iter
    (fun c ->
      check "bits is a library width" true (List.mem c.Candidate.bits [ 1; 2; 4; 8 ]);
      checki "complete" c.Candidate.bits c.Candidate.target_bits)
    cands

let test_incomplete_mapping () =
  (* three 1-bit regs: a triple totals 3 bits -> incomplete 4-bit *)
  let graph = row_graph 3 in
  let cands =
    enumerate
      ~cfg:{ Candidate.default_config with Candidate.incomplete_area_overhead = 1.0 }
      graph
  in
  let triple =
    List.find_opt (fun c -> c.Candidate.members = [ 0; 1; 2 ]) cands
  in
  (match triple with
  | Some c ->
    check "incomplete" true c.Candidate.incomplete;
    checki "3 bits connected" 3 c.Candidate.bits;
    checki "maps to 4" 4 c.Candidate.target_bits
  | None -> Alcotest.fail "triple expected");
  (* with a strict overhead rule the 3-in-4 candidate dies *)
  let strict =
    enumerate
      ~cfg:{ Candidate.default_config with Candidate.incomplete_area_overhead = 0.0 }
      graph
  in
  check "strict rejects" true
    (not (List.exists (fun c -> c.Candidate.members = [ 0; 1; 2 ] && c.Candidate.incomplete) strict))

let test_region_intersection_required () =
  (* two compatible nodes with disjoint feasible regions: no pair *)
  let graph = row_graph 2 ~feas:0.1 in
  (* move node 1 far away but keep the edge *)
  let info1 = graph.Compat.infos.(1) in
  let far = Rect.make ~lx:100.0 ~ly:0.0 ~hx:101.4 ~hy:1.2 in
  graph.Compat.infos.(1) <-
    { info1 with Compat.footprint = far; feasible = Rect.expand far 0.1;
      center = Rect.center far };
  let cands = enumerate graph in
  check "no pair without common region" true
    (not (List.mem [ 0; 1 ] (members_sets cands)))

let test_no_duplicates () =
  let graph = row_graph 8 in
  let cands = enumerate graph in
  let sets = members_sets cands in
  checki "no duplicate member sets" (List.length sets)
    (List.length (List.sort_uniq compare sets))

let test_bits_respect_max_width () =
  let graph = row_graph 12 in
  let cands = enumerate graph in
  List.iter
    (fun c -> check "at most 8 bits" true (c.Candidate.bits <= 8))
    cands

let test_multi_bit_members () =
  (* 4-bit registers: pairs reach 8, triples (12) are impossible *)
  let graph = row_graph ~bits:4 6 in
  let cands = enumerate graph in
  check "pairs exist" true
    (List.exists (fun c -> List.length c.Candidate.members = 2) cands);
  check "no triples" true
    (not (List.exists (fun c -> List.length c.Candidate.members = 3) cands))

let test_weight_ablation () =
  let graph = row_graph 4 in
  let cands =
    enumerate ~cfg:{ Candidate.default_config with Candidate.use_weights = false } graph
  in
  List.iter
    (fun c ->
      if not (Candidate.is_singleton c) then
        check "uniform 1/bits" true
          (Float.abs (c.Candidate.weight -. (1.0 /. float_of_int c.Candidate.bits))
          < 1e-9))
    cands

let test_structured_path_covers_large_blocks () =
  (* 30 mutually-compatible 1-bit registers: the structured enumerator
     must still offer 8-member chains so the ILP can tile the block *)
  let graph = row_graph 30 in
  let cands = enumerate graph in
  check "has 8-member candidates" true
    (List.exists (fun c -> List.length c.Candidate.members = 8) cands);
  check "has pairs" true
    (List.exists (fun c -> List.length c.Candidate.members = 2) cands);
  checki "singletons for everyone" 30
    (List.length (List.filter Candidate.is_singleton cands))

let test_region_recorded () =
  let graph = row_graph 3 in
  let cands = enumerate graph in
  List.iter
    (fun (c : Candidate.t) ->
      match c.Candidate.members with
      | [ _ ] -> ()
      | members ->
        (* the recorded region is the intersection of member regions *)
        List.iter
          (fun m ->
            check "region inside member feasible" true
              (Rect.contains_rect graph.Compat.infos.(m).Compat.feasible
                 c.Candidate.region))
          members)
    cands

let test_cap_respected () =
  let graph = row_graph 10 in
  let cfg = { Candidate.default_config with Candidate.max_per_block = 15 } in
  let cands = enumerate ~cfg graph in
  (* the DFS path counts nodes; output is bounded accordingly *)
  check "bounded output" true (List.length cands <= 60)

let test_block_size_limit () =
  (* a member set is a bit mask over block positions: 62 nodes is the
     widest block that fits, 63 is refused *)
  let cands = enumerate (row_graph 62) in
  checki "singletons for all 62" 62
    (List.length (List.filter Candidate.is_singleton cands));
  check "the highest position merges" true
    (List.exists
       (fun c -> List.length c.Candidate.members > 1 && List.mem 61 c.Candidate.members)
       cands);
  match enumerate (row_graph 63) with
  | _ -> Alcotest.fail "a 63-node block was enumerated"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "mbr_core.candidate"
    [
      ( "validity",
        [
          Alcotest.test_case "singletons present" `Quick test_singletons_always_present;
          Alcotest.test_case "valid widths only" `Quick test_valid_widths_only;
          Alcotest.test_case "incomplete mapping" `Quick test_incomplete_mapping;
          Alcotest.test_case "region intersection" `Quick test_region_intersection_required;
          Alcotest.test_case "bits <= max width" `Quick test_bits_respect_max_width;
          Alcotest.test_case "multi-bit members" `Quick test_multi_bit_members;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "no duplicates" `Quick test_no_duplicates;
          Alcotest.test_case "weight ablation" `Quick test_weight_ablation;
          Alcotest.test_case "structured large blocks" `Quick
            test_structured_path_covers_large_blocks;
          Alcotest.test_case "region recorded" `Quick test_region_recorded;
          Alcotest.test_case "cap respected" `Quick test_cap_respected;
          Alcotest.test_case "block size limit" `Quick test_block_size_limit;
        ] );
    ]
