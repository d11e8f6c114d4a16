(** Int-packed compressed-sparse-row adjacency for undirected graphs
    over integer nodes \[0, n) — the one graph type of the library. The
    register compatibility graph G of the paper is an instance: nodes
    are composable registers, edges are pairwise compatibility.

    At 100×-paper scale (~150k nodes, millions of edges) per-node set
    trees would chase boxed pointers on every neighbour visit and
    allocate a search path on every membership test. A CSR graph
    stores the whole adjacency in two flat [int array]s — [row_ptr] of
    length n+1 and a column array holding each node's neighbours as a
    sorted slice — so neighbour iteration is a cache-linear scan and
    membership is a binary search over unboxed ints.

    Values are immutable once built. Construction goes through
    {!Builder}: a packed edge list, sorted and deduplicated once at
    {!Builder.finish}, so every graph is symmetric by construction. *)

type t

val n_nodes : t -> int

val n_edges : t -> int
(** Undirected edge count (each edge stored twice internally). *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool
(** Binary search in the smaller endpoint's row slice. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Ascending order; no allocation. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val neighbors : t -> int -> int list
(** Ascending order (allocates; prefer {!iter_neighbors} in hot code). *)

val edges : t -> (int * int) list
(** Each undirected edge once, as (lo, hi), lexicographically sorted. *)

val is_clique : t -> int list -> bool
(** All pairs adjacent (singletons and empty are cliques). *)

val induced : t -> int array -> t
(** [induced g nodes]: subgraph on [nodes] (node [i] of the result is
    [nodes.(i)]). Duplicate entries are rejected with
    [Invalid_argument]. *)

module Builder : sig
  type b

  val create : int -> b
  (** [create n]: builder for a graph on n nodes, no edges yet. *)

  val add_edge : b -> int -> int -> unit
  (** Records an undirected edge; duplicates are fine (deduplicated at
      {!finish}), self-loops are rejected with [Invalid_argument]. *)

  val finish : b -> t
  (** Sorts the packed edge list, deduplicates, and freezes the CSR
      arrays. The builder must not be reused afterwards. *)
end
