(* Quickstart: the paper's worked example (Figs. 1-3), end to end.

   Six registers A1..F2 with the Fig. 2 placement are analysed: the
   compatibility graph's maximal cliques are enumerated, every candidate
   MBR is weighted with the placement-aware heuristic of §3.2, and the
   ILP of §3.1 picks the final grouping — once without and once with
   incomplete MBRs, reproducing both outcomes the paper discusses.

   Run with: dune exec examples/quickstart.exe *)

module PE = Mbr_core.Paper_example
module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Design = Mbr_netlist.Design
module Bk = Mbr_graph.Bron_kerbosch
module Texttab = Mbr_util.Texttab

let () =
  let t = PE.build () in
  print_endline "=== Fig. 1: compatibility graph ===";
  Printf.printf "registers: %s (widths 1,1,1,1,4,2)\n"
    (String.concat " " (Array.to_list t.PE.names));
  let cliques = Bk.maximal_cliques t.PE.graph.Compat.adj in
  List.iter
    (fun c ->
      Printf.printf "maximal clique: {%s}\n"
        (String.concat "," (List.map (fun i -> t.PE.names.(i)) c)))
    cliques;

  print_endline "\n=== Fig. 3: candidate MBRs and their weights ===";
  let tab = Texttab.create ~headers:[ "candidate"; "bits"; "target"; "weight" ] in
  let cands = PE.candidates ~allow_incomplete:true ~incomplete_area_overhead:0.6 t in
  let name_of (c : Candidate.t) =
    String.concat "" (List.map (fun i -> t.PE.names.(i)) c.Candidate.members)
  in
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.Candidate.bits, name_of a)
          (b.Candidate.bits, name_of b))
      cands
  in
  List.iter
    (fun (c : Candidate.t) ->
      Texttab.add_row tab
        [
          name_of c;
          string_of_int c.Candidate.bits;
          (if c.Candidate.incomplete then
             Printf.sprintf "%d (incomplete)" c.Candidate.target_bits
           else string_of_int c.Candidate.target_bits);
          Texttab.fmt_float ~dec:3 c.Candidate.weight;
        ])
    sorted;
  Texttab.print tab;

  let show label groups cost =
    Printf.printf "\n%s: %d final registers, ILP cost %.4f\n" label
      (List.length groups) cost;
    List.iter
      (fun cids ->
        let names =
          List.map (fun cid -> (Design.cell t.PE.design cid).Mbr_netlist.Types.c_name) cids
        in
        Printf.printf "  {%s}\n" (String.concat "," names))
      groups
  in
  print_endline "\n=== ILP selection (§3.1) ===";
  let groups, cost = PE.solve ~allow_incomplete:false t in
  show "without incomplete MBRs (paper: {B,F} + {A,C,D} + E)" groups cost;
  let groups2, cost2 = PE.solve ~allow_incomplete:true ~incomplete_area_overhead:0.6 t in
  show "with incomplete MBRs (same count, different grouping)" groups2 cost2;
  print_endline "\nBoth runs end with three registers, as in the paper."
