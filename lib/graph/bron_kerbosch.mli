(** Maximal-clique enumeration (Bron–Kerbosch, Algorithm 457) with pivot
    selection and degeneracy-ordered outer loop — the candidate-MBR
    enumeration engine of the paper's §3. The worst case is O(3^(n/3)),
    which is why callers first K-partition the compatibility graph into
    blocks of at most 30 nodes. *)

val maximal_cliques : Csr.t -> int list list
(** All maximal cliques, each sorted ascending; the list of cliques is
    sorted lexicographically for determinism. Isolated nodes yield
    singleton cliques. The empty graph (0 nodes) yields []. *)

val max_clique_size : Csr.t -> int
(** Size of the largest clique (0 for the empty graph). *)

val count_maximal_cliques : Csr.t -> int

val degeneracy_order : Csr.t -> int array
(** The outer loop's node order: repeatedly remove a minimum-degree
    node (smallest-last), which keeps the recursion shallow on sparse
    graphs. Exposed for tests. *)
