(* Golden tests against the paper's worked example (Figs. 1-3).

   Every weight documented in the paper's text and Fig. 3 is asserted,
   and both ILP outcomes (with and without incomplete MBRs) match the
   narrative: three final registers either way.

   One note on Fig. 3 as printed: the figure lists BF/CF at 0.50, but
   the paper's own formula (w = 1/b_i for clean candidates, with b_i
   "the number of bits of the registers that will be merged") gives
   1/3 for B1+F2 = 3 bits — the same arithmetic the text itself uses
   for AE (5 bits -> 0.20) and AEC (6 bits -> 0.17). We follow the
   formula. *)

module PE = Mbr_core.Paper_example
module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Weight = Mbr_core.Weight
module Bk = Mbr_graph.Bron_kerbosch

let checkf = Alcotest.(check (float 1e-9))

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let t = PE.build ()

let w names = PE.weight_of t names

let test_singleton_weights () =
  (* Fig. 3 "Original" column: every kept register costs exactly 1 *)
  List.iter (fun n -> checkf n 1.0 (w [ n ])) [ "A"; "B"; "C"; "D"; "E"; "F" ]

let test_two_bit_weights () =
  checkf "AB" 0.5 (w [ "A"; "B" ]);
  checkf "AD" 0.5 (w [ "A"; "D" ]);
  checkf "AC" 0.5 (w [ "A"; "C" ]);
  checkf "BD" 0.5 (w [ "B"; "D" ]);
  checkf "CD" 0.5 (w [ "C"; "D" ]);
  (* D's center lies inside the B-C test polygon: 2 * 2^1 = 4 *)
  checkf "BC blocked by D" 4.0 (w [ "B"; "C" ])

let test_three_bit_weights () =
  checkf "ABD" (1.0 /. 3.0) (w [ "A"; "B"; "D" ]);
  checkf "BCD" (1.0 /. 3.0) (w [ "B"; "C"; "D" ]);
  checkf "ACD" (1.0 /. 3.0) (w [ "A"; "C"; "D" ]);
  checkf "BF" (1.0 /. 3.0) (w [ "B"; "F" ]);
  checkf "CF" (1.0 /. 3.0) (w [ "C"; "F" ]);
  (* the paper's example: {A,B,C} has {b,n} = {3,1} => 6 *)
  checkf "ABC blocked by D" 6.0 (w [ "A"; "B"; "C" ])

let test_four_bit_weights () =
  checkf "ABCD" 0.25 (w [ "A"; "B"; "C"; "D" ]);
  (* {B,C,F} = 4 bits with D inside: 4 * 2^1 = 8 *)
  checkf "BCF" 8.0 (w [ "B"; "C"; "F" ])

let test_wide_weights () =
  checkf "AE 5 bits" 0.2 (w [ "A"; "E" ]);
  checkf "AEC 6 bits" (1.0 /. 6.0) (w [ "A"; "C"; "E" ])

let test_fig1_maximal_cliques () =
  let cliques = Bk.maximal_cliques t.PE.graph.Compat.adj in
  (* {A,B,C,D}, {A,C,E}, {B,C,F} — the cliques the paper discusses *)
  Alcotest.(check (list (list int)))
    "cliques" [ [ 0; 1; 2; 3 ]; [ 0; 2; 4 ]; [ 1; 2; 5 ] ] cliques

let test_candidate_enumeration_no_incomplete () =
  let cands = PE.candidates ~allow_incomplete:false t in
  let has names =
    let nodes = List.sort compare (List.map (PE.node t) names) in
    List.exists (fun (c : Candidate.t) -> c.Candidate.members = nodes) cands
  in
  (* 6-bit {A,C,E} is invalid without an incomplete 8-bit mapping (§3) *)
  check "ACE absent" false (has [ "A"; "C"; "E" ]);
  check "AE absent" false (has [ "A"; "E" ]);
  check "ABCD present" true (has [ "A"; "B"; "C"; "D" ]);
  check "BF present" true (has [ "B"; "F" ]);
  check "singletons present" true (has [ "E" ])

let test_candidate_enumeration_incomplete () =
  let cands = PE.candidates ~allow_incomplete:true ~incomplete_area_overhead:0.6 t in
  let find names =
    let nodes = List.sort compare (List.map (PE.node t) names) in
    List.find_opt (fun (c : Candidate.t) -> c.Candidate.members = nodes) cands
  in
  (match find [ "A"; "E" ] with
  | Some c ->
    check "AE incomplete" true c.Candidate.incomplete;
    checki "AE 5 connected bits" 5 c.Candidate.bits;
    checki "AE maps to 8" 8 c.Candidate.target_bits
  | None -> Alcotest.fail "AE candidate expected");
  (* the production 5% rule rejects AE, as the paper notes *)
  let strict = PE.candidates ~allow_incomplete:true ~incomplete_area_overhead:0.05 t in
  check "AE rejected by area rule" true
    (not
       (List.exists
          (fun (c : Candidate.t) ->
            c.Candidate.members = List.sort compare [ PE.node t "A"; PE.node t "E" ])
          strict))

(* The stream and weight_of count blockers with the same kernel: every
   emitted candidate carries exactly the weight of its member set. *)
let test_candidate_weights_match_weight_of () =
  List.iter
    (fun (allow_incomplete, incomplete_area_overhead) ->
      List.iter
        (fun (c : Candidate.t) ->
          let names = List.map (fun i -> t.PE.names.(i)) c.Candidate.members in
          Alcotest.(check (float 0.0))
            (String.concat "" names) (w names) c.Candidate.weight)
        (PE.candidates ~allow_incomplete ~incomplete_area_overhead t))
    [ (false, 0.05); (true, 0.05); (true, 0.6) ]

let test_ilp_without_incomplete () =
  (* paper: {B,F} + {A,C,D} + E kept = 3 registers, cost 1/3+1/3+1 *)
  let groups, cost = PE.solve ~allow_incomplete:false t in
  checki "three registers" 3 (List.length groups);
  checkf "cost 5/3" (5.0 /. 3.0) cost

let test_ilp_with_incomplete () =
  (* paper: "the same final register count" with incomplete MBRs *)
  let groups, cost = PE.solve ~allow_incomplete:true ~incomplete_area_overhead:0.6 t in
  checki "three registers" 3 (List.length groups);
  check "cheaper than the complete-only optimum" true (cost < 5.0 /. 3.0);
  (* every group is a pair: the incomplete mapping frees E to merge *)
  List.iter (fun g -> checki "pair" 2 (List.length g)) groups

let test_weight_formula_cases () =
  (* §3.2's arithmetic examples: 8-bit clean = 1/8 < two clean 4-bits;
     one 8-bit with a blocker (16) loses to 4-clean + 4-with-blocker
     (8.25) *)
  checkf "clean 8" (1.0 /. 8.0) (Weight.formula ~bits:8 ~blockers:0);
  checkf "two clean 4s" 0.5
    (Weight.formula ~bits:4 ~blockers:0 +. Weight.formula ~bits:4 ~blockers:0);
  checkf "8 with blocker" 16.0 (Weight.formula ~bits:8 ~blockers:1);
  checkf "4 clean + 4 blocked" 8.25
    (Weight.formula ~bits:4 ~blockers:0 +. Weight.formula ~bits:4 ~blockers:1);
  check "n >= b rejected" true
    (Weight.formula ~bits:3 ~blockers:3 = infinity);
  checkf "singleton rule" 1.0 (Weight.candidate_weight ~n_members:1 ~bits:4 ~blockers:0)

let () =
  Alcotest.run "paper_example"
    [
      ( "fig3_weights",
        [
          Alcotest.test_case "singletons" `Quick test_singleton_weights;
          Alcotest.test_case "2-cell candidates" `Quick test_two_bit_weights;
          Alcotest.test_case "3-bit candidates" `Quick test_three_bit_weights;
          Alcotest.test_case "4-bit candidates" `Quick test_four_bit_weights;
          Alcotest.test_case "5/6-bit candidates" `Quick test_wide_weights;
          Alcotest.test_case "weight formula cases" `Quick test_weight_formula_cases;
        ] );
      ( "fig1_graph",
        [ Alcotest.test_case "maximal cliques" `Quick test_fig1_maximal_cliques ] );
      ( "candidates",
        [
          Alcotest.test_case "no incomplete" `Quick test_candidate_enumeration_no_incomplete;
          Alcotest.test_case "incomplete admitted/rejected" `Quick
            test_candidate_enumeration_incomplete;
          Alcotest.test_case "weights = weight_of" `Quick
            test_candidate_weights_match_weight_of;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "without incomplete" `Quick test_ilp_without_incomplete;
          Alcotest.test_case "with incomplete" `Quick test_ilp_with_incomplete;
        ] );
    ]
