(** Dense two-phase primal simplex for small/medium linear programs.

    Built in-repo because no LP/ILP bindings are available offline (see
    DESIGN.md §2). Serves two clients: the LP relaxation bound inside the
    branch-and-bound ILP solver ({!Mbr_ilp}), and the wirelength-
    minimizing MBR placement LP of the paper's §4.2 (where [max]/[min]
    terms are linearized with helper variables by the caller).

    Problems are stated as: minimize [c·x] subject to rows
    [a_i·x (<=|=|>=) b_i] and per-variable bounds. Bland's rule is used
    throughout, so the solver cannot cycle. Sizes up to a few thousand
    variables and a few hundred rows are comfortable. *)

type relation = Le | Ge | Eq

type t
(** A problem under construction (mutable builder). *)

type var = int
(** Variable handle; also the index into the solution vector. *)

val create : unit -> t

val add_var : ?lb:float -> ?ub:float -> ?obj:float -> t -> var
(** New variable with bounds \[[lb], [ub]\] (defaults 0, +inf; [lb] may
    be [neg_infinity] for a free variable) and objective coefficient
    [obj] (default 0). *)

val add_constraint : t -> (var * float) list -> relation -> float -> unit
(** Add a row; repeated variables in the term list are summed. *)

type status = Optimal | Infeasible | Unbounded

type solution = {
  status : status;
  objective : float;  (** meaningful only when [status = Optimal] *)
  values : float array;  (** indexed by [var], one entry per variable *)
  duals : float array;
      (** simplex multiplier of every constraint, in {!add_constraint}
          order; empty unless [status = Optimal]. For a minimization
          over [x >= 0] (all default bounds) the reduced cost of
          variable [j] is [obj_j - sum_i duals_i * a_ij >= 0], with
          equality on basic variables — the input to dual-based
          variable fixing in {!Mbr_ilp.Set_partition}. Rows stated with
          finite upper bounds or free variables still get a multiplier,
          but the complementary-slackness identity then also involves
          the active bound terms. *)
}

val solve : t -> solution
(** Solve the problem as currently stated. The builder is not consumed:
    more rows/variables can be added and [solve] called again. *)
