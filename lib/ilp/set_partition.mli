(** Exact solver for the paper's ILP (§3.1):

    {v minimize   sum_i w_i x_i
       subject to for every register j: sum_{i : j in M_i} x_i = 1
                  x_i in {0, 1} v}

    i.e. weighted set partitioning over MBR candidates. Because the
    compatibility graph is K-partitioned into blocks of at most 30
    registers (§3), each instance is small and is solved to proven
    optimality by a staged kernel:

    {b 1. Reduction.} Dominated candidates are stripped (an equal
    element set no cheaper, or a split into an equal-or-subset
    candidate plus singletons no dearer — the set-{e covering} subset
    rule is unsound under the equality rows and is not used), and
    candidates forced by uniquely-covered elements are fixed to a
    fixpoint. Both rewrites preserve feasibility, the optimal cost and
    the reported status.

    {b 2. Decomposition.} The surviving candidates split into connected
    components of the candidate-overlap graph; each component is an
    independent subproblem, so one exponential search becomes several
    small ones.

    {b 3. Search.} Per component: a greedy + 1-swap incumbent is seeded
    first; the root LP relaxation ({!Mbr_lp.Simplex}) proves it optimal
    outright when it meets the bound, and otherwise supplies duals for
    reduced-cost variable fixing. The remaining depth-first
    branch-and-bound branches on the uncovered element with the fewest
    {e available} candidates (dynamic fail-first), prunes with the
    dynamic per-element share bound
    [sum_e min_{available c containing e} w_c / |c|], and drops
    revisits of an already-seen covered set at equal-or-higher cost
    (dominance table).

    Work rolls up into the [ilp.*] metrics counters: [bb_nodes],
    [lp_relaxations], [dominated_pruned], [fixed_vars] (unique-cover
    plus reduced-cost fixings) and [components].

    Callers must include a candidate for every element that can stand
    alone (the paper's "Original" singletons), otherwise the instance
    may be infeasible — which is detected and reported, not an error. *)

type candidate = { weight : float; elems : int list }
(** [elems] are register indices in \[0, n_elems); duplicates are
    ignored. Candidates with [weight = infinity] (the paper's
    [n_i >= b_i] case) are skipped by the solver. *)

type problem = { n_elems : int; candidates : candidate array }

type status = Optimal | Feasible | Infeasible

type result = {
  status : status;
  cost : float;
      (** total weight of [chosen]; [nan] when infeasible, or when the
          node limit tripped before any full cover was found *)
  chosen : int list;  (** indices into [candidates], ascending *)
  nodes : int;  (** search-tree nodes explored, across all components *)
}

val solve :
  ?node_limit:int ->
  ?lp_bound:bool ->
  ?reductions:bool ->
  ?cancel:Mbr_util.Cancel.t ->
  problem ->
  result
(** [node_limit] (default 2_000_000) caps the search across all
    components; when it trips, the best incumbent found so far (at
    worst the greedy + 1-swap seed) is returned with
    [status = Feasible] — so a [Feasible] result with a non-empty
    [chosen] is always a usable exact cover, just not a proven optimum.
    [lp_bound] (default [true]) computes root LP relaxations for
    pruning and reduced-cost fixing. [reductions] (default [true])
    runs the dominance / unique-cover / component-decomposition pass;
    disabling it is for tests and ablations — the reductions never
    change [status] or [cost] (property-tested), only the work needed
    to get there.

    [cancel] is polled ([Mbr_util.Cancel.check]) exactly once per
    search node, in the same position as the node-limit test, so a
    token that trips at the [m]-th check yields the identical result to
    [~node_limit:(m - 1)] with no token (property-tested): same status,
    cost, chosen set and node count. Cancellation therefore shares the
    node-limit contract above — the incumbent comes back, the proof is
    abandoned. Reductions and root LPs are not interruptible; they are
    polynomial and small per block. A solve whose token tripped bumps
    the [ilp.cancelled] counter. *)

val lp_relaxation : problem -> float option
(** Optimal value of the LP relaxation, [None] when LP-infeasible.
    Exposed for tests and for the benchmark's ILP-vs-LP gap report. *)

val brute_force : problem -> result
(** Exhaustive oracle for tests. Exponential: use only with a handful of
    candidates. *)
