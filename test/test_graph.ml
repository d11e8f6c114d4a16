(* Tests for Mbr_graph: the undirected graph type (Csr), Bron–Kerbosch
   (vs a brute-force maximal clique oracle), connected components,
   K-partitioning. *)

module Csr = Mbr_graph.Csr
module Bk = Mbr_graph.Bron_kerbosch
module Components = Mbr_graph.Components
module Kpart = Mbr_graph.Kpart
module Point = Mbr_geom.Point
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let graph_of_edges n edges =
  let b = Csr.Builder.create n in
  List.iter (fun (a, c) -> Csr.Builder.add_edge b a c) edges;
  Csr.Builder.finish b

(* ---- the undirected graph type ---- *)

let test_csr_basic () =
  let g = graph_of_edges 4 [ (0, 1); (1, 2) ] in
  check "has 0-1" true (Csr.has_edge g 0 1);
  check "symmetric" true (Csr.has_edge g 1 0);
  check "no 0-2" false (Csr.has_edge g 0 2);
  checki "edges" 2 (Csr.n_edges g);
  checki "deg 1" 2 (Csr.degree g 1);
  Alcotest.(check (list int)) "neighbors" [ 0; 2 ] (Csr.neighbors g 1)

let test_csr_idempotent_edges () =
  let g = graph_of_edges 3 [ (0, 1); (0, 1); (1, 0) ] in
  checki "one edge" 1 (Csr.n_edges g);
  Alcotest.(check (list int)) "row deduplicated" [ 1 ] (Csr.neighbors g 0)

let test_csr_self_loop () =
  let b = Csr.Builder.create 2 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Csr.Builder.add_edge: self-loop")
    (fun () -> Csr.Builder.add_edge b 1 1)

let test_csr_edges_sorted () =
  let g = graph_of_edges 4 [ (2, 3); (0, 1); (1, 3) ] in
  Alcotest.(check (list (pair int int))) "sorted" [ (0, 1); (1, 3); (2, 3) ]
    (Csr.edges g)

let test_csr_induced () =
  let g = graph_of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let sub = Csr.induced g [| 0; 1; 4 |] in
  checki "3 nodes" 3 (Csr.n_nodes sub);
  check "0-1 kept" true (Csr.has_edge sub 0 1);
  check "0-4 kept (as 0-2)" true (Csr.has_edge sub 0 2);
  check "1-4 absent" false (Csr.has_edge sub 1 2);
  Alcotest.check_raises "duplicate node"
    (Invalid_argument "Csr.induced: duplicate node")
    (fun () -> ignore (Csr.induced g [| 0; 0 |]))

let test_csr_is_clique () =
  let g = graph_of_edges 4 [ (0, 1); (0, 2); (1, 2) ] in
  check "triangle" true (Csr.is_clique g [ 0; 1; 2 ]);
  check "not clique" false (Csr.is_clique g [ 0; 1; 3 ]);
  check "singleton" true (Csr.is_clique g [ 3 ]);
  check "empty" true (Csr.is_clique g [])

(* Smallest-last: each node, when it is taken, has the minimum degree
   among the nodes not yet taken. *)
let test_degeneracy_order () =
  let g = graph_of_edges 5 [ (0, 1); (0, 2); (1, 2); (3, 0) ] in
  let order = Bk.degeneracy_order g in
  checki "permutation length" 5 (Array.length order);
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" [| 0; 1; 2; 3; 4 |] sorted;
  let taken = Array.make 5 false in
  let live_degree v =
    Csr.fold_neighbors g v (fun acc w -> if taken.(w) then acc else acc + 1) 0
  in
  Array.iter
    (fun v ->
      for w = 0 to 4 do
        if not taken.(w) then
          check
            (Printf.sprintf "%d taken before %d has min degree" v w)
            true
            (live_degree v <= live_degree w)
      done;
      taken.(v) <- true)
    order

(* ---- Bron–Kerbosch ---- *)

let brute_maximal_cliques g =
  (* all maximal cliques by subset enumeration; n <= ~15 *)
  let n = Csr.n_nodes g in
  let cliques = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let members = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
    if Csr.is_clique g members then begin
      (* maximal iff no external vertex adjacent to all *)
      let maximal =
        not
          (List.exists
             (fun v ->
               (not (List.mem v members))
               && List.for_all (fun m -> Csr.has_edge g v m) members)
             (List.init n Fun.id))
      in
      if maximal then cliques := members :: !cliques
    end
  done;
  List.sort compare !cliques

let test_bk_triangle_plus_edge () =
  let g = graph_of_edges 4 [ (0, 1); (0, 2); (1, 2); (2, 3) ] in
  Alcotest.(check (list (list int))) "cliques" [ [ 0; 1; 2 ]; [ 2; 3 ] ]
    (Bk.maximal_cliques g)

let test_bk_isolated_nodes () =
  let g = graph_of_edges 3 [] in
  Alcotest.(check (list (list int))) "singletons" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Bk.maximal_cliques g)

let test_bk_complete_graph () =
  let n = 6 in
  let b = Csr.Builder.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Csr.Builder.add_edge b i j
    done
  done;
  let g = Csr.Builder.finish b in
  Alcotest.(check (list (list int))) "one clique" [ List.init n Fun.id ]
    (Bk.maximal_cliques g);
  checki "max size" n (Bk.max_clique_size g)

let test_bk_paper_fig1 () =
  (* the compatibility graph of the paper's Fig. 1:
     A=0 B=1 C=2 D=3 E=4 F=5; edges: all pairs of {A,B,C,D}, B-F, C-F,
     A-E, C-E. Maximal cliques: {A,B,C,D}, {B,C,F}, {A,C,E}. *)
  let g =
    graph_of_edges 6
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (1, 5); (2, 5); (0, 4); (2, 4) ]
  in
  Alcotest.(check (list (list int)))
    "paper cliques"
    [ [ 0; 1; 2; 3 ]; [ 0; 2; 4 ]; [ 1; 2; 5 ] ]
    (Bk.maximal_cliques g)

let test_bk_count () =
  let g = graph_of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  checki "path cliques" 4 (Bk.count_maximal_cliques g)

let random_graph rng n p =
  let b = Csr.Builder.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.chance rng p then Csr.Builder.add_edge b i j
    done
  done;
  Csr.Builder.finish b

let bk_matches_oracle =
  QCheck.Test.make ~name:"Bron-Kerbosch = brute-force maximal cliques" ~count:150
    QCheck.(pair (int_range 1 9) (int_bound 100))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = random_graph rng n 0.45 in
      Bk.maximal_cliques g = brute_maximal_cliques g)

let bk_all_are_cliques_and_maximal =
  QCheck.Test.make ~name:"every reported clique is maximal" ~count:100
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 14 in
      let g = random_graph rng n 0.4 in
      List.for_all
        (fun c ->
          Csr.is_clique g c
          && not
               (List.exists
                  (fun v ->
                    (not (List.mem v c))
                    && List.for_all (fun m -> Csr.has_edge g v m) c)
                  (List.init n Fun.id)))
        (Bk.maximal_cliques g))

(* ---- Components ---- *)

let test_components_basic () =
  let g = graph_of_edges 6 [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (Components.components g)

let test_component_of () =
  let g = graph_of_edges 4 [ (0, 2) ] in
  let comp = Components.component_of g in
  checki "same comp" comp.(0) comp.(2);
  check "diff comp" true (comp.(0) <> comp.(1))

(* ---- Kpart ---- *)

let grid_position n i =
  ignore n;
  Point.make (Float.of_int (i mod 10)) (Float.of_int (i / 10))

let test_kpart_respects_bound () =
  let n = 100 in
  let g = graph_of_edges n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let blocks = Kpart.partition ~bound:30 g ~position:(grid_position n) in
  List.iter (fun b -> check "bound" true (List.length b <= 30)) blocks;
  checki "all nodes once" n (List.length (List.concat blocks));
  Alcotest.(check (list int)) "exactly the nodes" (List.init n Fun.id)
    (List.sort compare (List.concat blocks))

let test_kpart_small_component_untouched () =
  let g = graph_of_edges 5 [ (0, 1); (2, 3) ] in
  let blocks = Kpart.partition ~bound:30 g ~position:(grid_position 5) in
  checki "3 blocks" 3 (List.length blocks)

let test_kpart_never_straddles_components () =
  let g = graph_of_edges 8 [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6); (6, 7) ] in
  let blocks = Kpart.partition ~bound:2 g ~position:(grid_position 8) in
  List.iter
    (fun b ->
      let comp_a = List.for_all (fun v -> v <= 3) b in
      let comp_b = List.for_all (fun v -> v >= 4) b in
      check "single component per block" true (comp_a || comp_b))
    blocks

let test_kpart_invalid_bound () =
  let g = graph_of_edges 2 [] in
  Alcotest.check_raises "bound" (Invalid_argument "Kpart.partition: bound < 1")
    (fun () -> ignore (Kpart.partition ~bound:0 g ~position:(grid_position 2)))

let test_split_by_median () =
  let position i = Point.make (Float.of_int i) 0.0 in
  let left, right = Kpart.split_by_median ~position [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "left half" [ 0; 1; 2 ] (List.sort compare left);
  Alcotest.(check (list int)) "right half" [ 3; 4; 5 ] (List.sort compare right)

let test_split_by_wider_axis () =
  (* spread is larger in y: split must separate low-y from high-y *)
  let position i = Point.make 0.0 (Float.of_int (i * 10)) in
  let left, right = Kpart.split_by_median ~position [ 0; 1; 2; 3 ] in
  check "y split" true
    (List.for_all (fun v -> v < 2) left && List.for_all (fun v -> v >= 2) right)

let kpart_partition_property =
  QCheck.Test.make ~name:"kpart: bound respected, nodes covered exactly once"
    ~count:100
    QCheck.(pair (int_range 1 60) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = random_graph rng n 0.1 in
      let position i =
        Point.make (Rng.float (Rng.create (i + seed)) 100.0) (Float.of_int (i mod 7))
      in
      let blocks = Kpart.partition ~bound:10 g ~position in
      List.for_all (fun b -> List.length b <= 10 && b <> []) blocks
      && List.sort compare (List.concat blocks) = List.init n Fun.id)

let () =
  Alcotest.run "mbr_graph"
    [
      (* the undirected graph type, Csr *)
      ( "ugraph",
        [
          Alcotest.test_case "basic" `Quick test_csr_basic;
          Alcotest.test_case "idempotent edges" `Quick test_csr_idempotent_edges;
          Alcotest.test_case "self loop" `Quick test_csr_self_loop;
          Alcotest.test_case "edges sorted" `Quick test_csr_edges_sorted;
          Alcotest.test_case "induced" `Quick test_csr_induced;
          Alcotest.test_case "is_clique" `Quick test_csr_is_clique;
          Alcotest.test_case "degeneracy order" `Quick test_degeneracy_order;
        ] );
      ( "bron_kerbosch",
        [
          Alcotest.test_case "triangle + edge" `Quick test_bk_triangle_plus_edge;
          Alcotest.test_case "isolated nodes" `Quick test_bk_isolated_nodes;
          Alcotest.test_case "complete graph" `Quick test_bk_complete_graph;
          Alcotest.test_case "paper Fig.1 cliques" `Quick test_bk_paper_fig1;
          Alcotest.test_case "count" `Quick test_bk_count;
          QCheck_alcotest.to_alcotest bk_matches_oracle;
          QCheck_alcotest.to_alcotest bk_all_are_cliques_and_maximal;
        ] );
      ( "components",
        [
          Alcotest.test_case "basic" `Quick test_components_basic;
          Alcotest.test_case "component_of" `Quick test_component_of;
        ] );
      ( "kpart",
        [
          Alcotest.test_case "respects bound" `Quick test_kpart_respects_bound;
          Alcotest.test_case "small components" `Quick test_kpart_small_component_untouched;
          Alcotest.test_case "no straddling" `Quick test_kpart_never_straddles_components;
          Alcotest.test_case "invalid bound" `Quick test_kpart_invalid_bound;
          Alcotest.test_case "split by median" `Quick test_split_by_median;
          Alcotest.test_case "split wider axis" `Quick test_split_by_wider_axis;
          QCheck_alcotest.to_alcotest kpart_partition_property;
        ] );
    ]
