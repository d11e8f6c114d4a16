module Bitset = Mbr_util.Bitset
module Uf = Mbr_util.Union_find

type candidate = { weight : float; elems : int list }

type problem = { n_elems : int; candidates : candidate array }

type status = Optimal | Feasible | Infeasible

type result = { status : status; cost : float; chosen : int list; nodes : int }

let dedup_elems elems = List.sort_uniq compare elems

(* Internal candidate with its element bitset. *)
type cand = { idx : int; w : float; set : Bitset.t; size : int }

let share c = c.w /. float_of_int c.size

let prepare p =
  let cands = ref [] in
  Array.iteri
    (fun idx c ->
      if Float.is_finite c.weight then begin
        let elems = dedup_elems c.elems in
        let set = Bitset.of_list p.n_elems elems in
        if not (Bitset.is_empty set) then
          cands := { idx; w = c.weight; set; size = List.length elems } :: !cands
      end)
    p.candidates;
  Array.of_list (List.rev !cands)

(* Telemetry counters: branch-and-bound work per solve rolls up as
   explored nodes; the reduction counters say how much of the problem
   never reached the search (dominated candidates stripped, variables
   fixed by unique cover or root-LP reduced costs, independent
   components solved separately). Together with the simplex counters
   from [Mbr_lp] they answer "where did the ILP time go". No-ops when
   disabled. *)
let m_solves = Mbr_obs.Metrics.counter "ilp.solves"

let m_nodes = Mbr_obs.Metrics.counter "ilp.bb_nodes"

let m_lps = Mbr_obs.Metrics.counter "ilp.lp_relaxations"

let m_limit_hits = Mbr_obs.Metrics.counter "ilp.node_limit_hits"

let m_dominated = Mbr_obs.Metrics.counter "ilp.dominated_pruned"

let m_components = Mbr_obs.Metrics.counter "ilp.components"

let m_fixed = Mbr_obs.Metrics.counter "ilp.fixed_vars"

let m_cancelled = Mbr_obs.Metrics.counter "ilp.cancelled"

(* ---- LP relaxation (shared by the public entry point and the
   per-component root bound) ---- *)

(* Solve the LP relaxation restricted to the equality rows of [elems],
   over already-prepared candidates. Returns the objective and the
   dual of every row indexed by element id; [None] when some element
   of [elems] has no covering candidate or the LP solve fails. *)
let lp_over ~n_elems ~elems (cands : cand array) =
  Mbr_obs.Metrics.incr m_lps;
  let module S = Mbr_lp.Simplex in
  let lp = S.create () in
  (* No explicit x <= 1 bounds: every candidate covers at least one
     element, whose equality row already caps its variable at 1 — and
     each bound would otherwise cost a simplex row. *)
  let vars = Array.map (fun c -> S.add_var ~lb:0.0 ~obj:c.w lp) cands in
  let covering = Array.make (max 1 n_elems) [] in
  Array.iteri
    (fun k c ->
      Bitset.iter (fun e -> covering.(e) <- (vars.(k), 1.0) :: covering.(e)) c.set)
    cands;
  if List.exists (fun e -> covering.(e) = []) elems then None
  else begin
    List.iter (fun e -> S.add_constraint lp covering.(e) S.Eq 1.0) elems;
    match S.solve lp with
    | { S.status = S.Optimal; objective; duals; _ } ->
      let y = Array.make (max 1 n_elems) 0.0 in
      List.iteri (fun i e -> y.(e) <- duals.(i)) elems;
      Some (objective, y)
    | { S.status = S.Infeasible | S.Unbounded; _ } -> None
  end

let lp_relaxation p =
  let cands = prepare p in
  match lp_over ~n_elems:p.n_elems ~elems:(List.init p.n_elems Fun.id) cands with
  | Some (obj, _) -> Some obj
  | None -> None

(* ---- greedy + 1-swap incumbent ---- *)

let greedy_order (cands : cand array) =
  let a = Array.copy cands in
  Array.sort
    (fun c1 c2 ->
      match compare (share c1) (share c2) with
      | 0 -> ( match compare c1.w c2.w with 0 -> compare c1.idx c2.idx | c -> c)
      | c -> c)
    a;
  a

(* Commit disjoint candidates cheapest share first, extending the
   partial selection [sel0]/[covered0]. [None] unless [target] is
   reached exactly. *)
let greedy_from ~(order : cand array) ~target covered0 cost0 sel0 =
  let covered = ref covered0 and cost = ref cost0 and sel = ref sel0 in
  Array.iter
    (fun c ->
      if Bitset.disjoint c.set !covered then begin
        covered := Bitset.union !covered c.set;
        cost := !cost +. c.w;
        sel := c :: !sel
      end)
    order;
  if Bitset.equal !covered target then Some (!cost, !sel) else None

(* 1-swap local search on an exact cover: force one non-selected
   candidate in, evict the picks it overlaps, greedily repair the gap,
   keep strict improvements. A few passes are plenty — this only seeds
   the branch-and-bound incumbent. *)
let improve_1swap ~(order : cand array) ~target ((cost0, sel0) : float * cand list) =
  let best = ref (cost0, sel0) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 4 do
    improved := false;
    incr rounds;
    Array.iter
      (fun c ->
        let bcost, bsel = !best in
        if not (List.exists (fun s -> s.idx = c.idx) bsel) then begin
          let keep = List.filter (fun s -> Bitset.disjoint s.set c.set) bsel in
          let cost = List.fold_left (fun a s -> a +. s.w) c.w keep in
          if cost < bcost -. 1e-12 then begin
            let covered =
              List.fold_left (fun a s -> Bitset.union a s.set) c.set keep
            in
            match greedy_from ~order ~target covered cost (c :: keep) with
            | Some (nc, nsel) when nc < bcost -. 1e-12 ->
              best := (nc, nsel);
              improved := true
            | Some _ | None -> ()
          end
        end)
      order
  done;
  !best

(* ---- reduction pass ---- *)

(* Dominance: a candidate is redundant when its element set can be
   rebuilt no more expensively from other candidates that any solution
   could use in its place. Sound rules under the *equality* (exact
   cover) constraints — note that the set-covering rule "drop a subset
   at >= weight" is NOT sound here, because the superset may conflict
   with the rest of a partition:
     - equal set, higher weight (ties keep the lowest index);
     - the set splits into one equal-or-subset candidate plus
       singletons for the rest, at total weight <= the candidate's
       (the pure all-singletons split is the subset = empty case).
   Dropping such a candidate rewrites any solution using it into one
   of equal or lower cost, so feasibility, the optimal cost and the
   solver's status are all preserved. *)
let dominance_prune ~n_elems (cands : cand array) =
  let m = Array.length cands in
  let alive = Array.make m true in
  let by_set : (int list, int) Hashtbl.t = Hashtbl.create (2 * m) in
  Array.iteri
    (fun k c ->
      let key = Bitset.elements c.set in
      match Hashtbl.find_opt by_set key with
      | None -> Hashtbl.replace by_set key k
      | Some j ->
        if cands.(j).w <= c.w then alive.(k) <- false
        else begin
          alive.(j) <- false;
          Hashtbl.replace by_set key k
        end)
    cands;
  (* cheapest surviving singleton per element *)
  let single = Array.make n_elems infinity in
  Array.iteri
    (fun k c ->
      if alive.(k) && c.size = 1 then
        Bitset.iter (fun e -> if c.w < single.(e) then single.(e) <- c.w) c.set)
    cands;
  let singles_over set = Bitset.fold (fun e acc -> acc +. single.(e)) set 0.0 in
  for k = 0 to m - 1 do
    let c = cands.(k) in
    if alive.(k) && c.size >= 2 then begin
      if singles_over c.set <= c.w then alive.(k) <- false
      else
        (* one smaller candidate + singletons for the remainder *)
        let j = ref 0 in
        while alive.(k) && !j < m do
          let b = cands.(!j) in
          if
            !j <> k && alive.(!j) && b.size >= 2 && b.size < c.size
            && Bitset.subset b.set c.set
            && b.w +. singles_over (Bitset.diff c.set b.set) <= c.w
          then alive.(k) <- false;
          incr j
        done
    end
  done;
  let dropped = ref 0 in
  Array.iter (fun a -> if not a then incr dropped) alive;
  Mbr_obs.Metrics.incr ~by:!dropped m_dominated;
  if !dropped = 0 then cands
  else begin
    let out = ref [] in
    for k = m - 1 downto 0 do
      if alive.(k) then out := cands.(k) :: !out
    done;
    Array.of_list !out
  end

(* Unique-cover fixing to a fixpoint: an element covered by exactly one
   candidate forces that candidate into the solution, which in turn
   kills every candidate it overlaps. Returns the forced picks, the
   surviving free candidates, and whether a contradiction (an element
   left with no cover) was reached. *)
let fix_unique ~n_elems (cands : cand array) =
  let m = Array.length cands in
  let alive = Array.make m true in
  let covered = ref (Bitset.create n_elems) in
  let forced = ref [] in
  let infeasible = ref false in
  let progress = ref true in
  while !progress && not !infeasible do
    progress := false;
    for e = 0 to n_elems - 1 do
      if not (!infeasible || Bitset.mem !covered e) then begin
        let cnt = ref 0 and last = ref (-1) in
        for k = 0 to m - 1 do
          if alive.(k) && Bitset.mem cands.(k).set e then begin
            incr cnt;
            last := k
          end
        done;
        if !cnt = 0 then infeasible := true
        else if !cnt = 1 then begin
          let c = cands.(!last) in
          covered := Bitset.union !covered c.set;
          forced := c :: !forced;
          alive.(!last) <- false;
          for k = 0 to m - 1 do
            if alive.(k) && not (Bitset.disjoint cands.(k).set c.set) then
              alive.(k) <- false
          done;
          progress := true
        end
      end
    done
  done;
  let forced = List.rev !forced in
  Mbr_obs.Metrics.incr ~by:(List.length forced) m_fixed;
  let free = ref [] in
  for k = m - 1 downto 0 do
    if alive.(k) then free := cands.(k) :: !free
  done;
  (forced, Array.of_list !free, !infeasible)

(* Connected components of the candidate-overlap graph: candidates
   sharing an element must agree on who covers it, so the ILP splits
   into an independent subproblem per component. Components are
   returned ordered by their smallest candidate position —
   deterministic regardless of union-find internals. *)
let split_components (cands : cand array) =
  let m = Array.length cands in
  if m = 0 then []
  else begin
    let uf = Uf.create m in
    let n = Bitset.universe_size cands.(0).set in
    let seen = Array.make n (-1) in
    Array.iteri
      (fun k c ->
        Bitset.iter
          (fun e -> if seen.(e) < 0 then seen.(e) <- k else Uf.union uf seen.(e) k)
          c.set)
      cands;
    let groups = List.sort
        (fun a b -> compare (List.hd a) (List.hd b))
        (Array.to_list (Uf.groups uf))
    in
    List.map (fun g -> Array.of_list (List.map (fun k -> cands.(k)) g)) groups
  end

(* ---- per-component branch-and-bound ---- *)

(* Components this small are cheaper to branch than to price: the
   simplex setup alone outweighs the handful of nodes the search
   needs. *)
let lp_min_cands = 9

(* Cap on the per-element availability count of the fail-first scan:
   past a few available candidates the element is not the bottleneck,
   so stop counting and move on. *)
let avail_cap = 3

(* Cap on the covered-set dominance table, per component. *)
let table_cap = 1 lsl 16

type comp_result =
  | C_opt of float * cand list  (* proven optimal over the component *)
  | C_inc of float * cand list  (* node budget tripped; best incumbent *)
  | C_none  (* budget tripped with no full cover found *)
  | C_infeasible

(* Solve one connected component. [nodes] is the global node counter
   shared across components; the budget [node_limit] applies to the
   whole solve, so a component entered with an exhausted budget falls
   back to its greedy/1-swap incumbent immediately. [poll] is the
   cancellation check, called exactly once per search node in the same
   position as the node-limit test — a tripped token therefore behaves
   bit-for-bit like an exhausted node budget (property-tested), and the
   incumbent seeded before the search is what a cancelled component
   returns. *)
let solve_component ~lp_bound ~node_limit ~poll ~nodes (comp0 : cand array) =
  let n_elems = Bitset.universe_size comp0.(0).set in
  let target =
    Array.fold_left (fun acc c -> Bitset.union acc c.set) (Bitset.create n_elems)
      comp0
  in
  let elems = Bitset.elements target in
  let order = greedy_order comp0 in
  let incumbent =
    match greedy_from ~order ~target (Bitset.create n_elems) 0.0 [] with
    | Some inc -> Some (improve_1swap ~order ~target inc)
    | None -> None
  in
  let lp =
    if lp_bound && Array.length comp0 >= lp_min_cands then
      lp_over ~n_elems ~elems comp0
    else None
  in
  match (incumbent, lp) with
  | Some (c, sel), Some (z, _) when c <= z +. 1e-9 ->
    (* the incumbent meets the relaxation bound: optimal, no search *)
    C_opt (c, sel)
  | _ ->
    (* Reduced-cost variable fixing off the root LP duals: a candidate
       whose fixing-to-1 bound [z + rc] already exceeds the incumbent
       cannot appear in any improving solution, so the search never
       needs to see it. Incumbent members are always kept, which also
       shields the fixing from dual round-off. *)
    let comp =
      match (incumbent, lp) with
      | Some (ub, sel), Some (z, y) ->
        let fixed = ref 0 in
        let keep =
          List.filter
            (fun c ->
              List.exists (fun s -> s.idx = c.idx) sel
              ||
              let rc =
                Float.max 0.0
                  (c.w -. Bitset.fold (fun e acc -> acc +. y.(e)) c.set 0.0)
              in
              if z +. rc > ub +. 1e-7 then begin
                incr fixed;
                false
              end
              else true)
            (Array.to_list comp0)
        in
        Mbr_obs.Metrics.incr ~by:!fixed m_fixed;
        Array.of_list keep
      | _ -> comp0
    in
    let covering = Array.make n_elems [] in
    Array.iter
      (fun c -> Bitset.iter (fun e -> covering.(e) <- c :: covering.(e)) c.set)
      comp;
    List.iter
      (fun e ->
        covering.(e) <-
          List.sort
            (fun c1 c2 ->
              match compare (share c1) (share c2) with
              | 0 -> (
                match compare c1.w c2.w with 0 -> compare c1.idx c2.idx | c -> c)
              | c -> c)
            covering.(e))
      elems;
    let best_cost = ref (match incumbent with Some (c, _) -> c | None -> infinity) in
    let best_sel = ref (match incumbent with Some (_, s) -> Some s | None -> None) in
    let limit_hit = ref false in
    let table : (Bitset.t, float) Hashtbl.t = Hashtbl.create 512 in
    let proved_by_lp () =
      match lp with Some (z, _) -> !best_cost <= z +. 1e-9 | None -> false
    in
    let rec branch covered cost sel =
      incr nodes;
      if !nodes > node_limit || poll () then limit_hit := true
      else if proved_by_lp () then ()
      else if Bitset.equal covered target then begin
        if cost < !best_cost -. 1e-12 then begin
          best_cost := cost;
          best_sel := Some sel
        end
      end
      else begin
        (* visited-covered-set dominance: the branch element is a
           function of the covered set alone, so a revisit at
           equal-or-higher cost explores a subtree that cannot beat the
           first visit's *)
        let dominated =
          match Hashtbl.find_opt table covered with
          | Some c -> cost >= c -. 1e-12
          | None -> false
        in
        if not dominated then begin
          if Hashtbl.mem table covered || Hashtbl.length table < table_cap then
            Hashtbl.replace table covered cost;
          (* one pass over the uncovered elements: the dynamic lower
             bound sums each element's cheapest *available* share (the
             static all-candidates minimum is only a lower bound on
             this), and the element with the fewest available
             candidates becomes the branch point (dynamic fail-first).
             An element with none is a dead end. *)
          let lb = ref 0.0 in
          let dead = ref false in
          let branch_e = ref (-1) in
          let branch_avail = ref max_int in
          List.iter
            (fun e ->
              if not (!dead || Bitset.mem covered e) then begin
                let rec scan cnt ms = function
                  | [] -> (cnt, ms)
                  | c :: rest ->
                    if cnt >= avail_cap then (cnt, ms)
                    else if Bitset.disjoint c.set covered then
                      scan (cnt + 1) (if cnt = 0 then share c else ms) rest
                    else scan cnt ms rest
                in
                let cnt, min_share = scan 0 infinity covering.(e) in
                if cnt = 0 then dead := true
                else begin
                  lb := !lb +. min_share;
                  if cnt < !branch_avail then begin
                    branch_avail := cnt;
                    branch_e := e
                  end
                end
              end)
            elems;
          if (not !dead) && cost +. !lb < !best_cost -. 1e-9 then
            List.iter
              (fun c ->
                if
                  (not !limit_hit) && (not (proved_by_lp ()))
                  && Bitset.disjoint c.set covered
                then branch (Bitset.union covered c.set) (cost +. c.w) (c :: sel))
              covering.(!branch_e)
        end
      end
    in
    branch (Bitset.create n_elems) 0.0 [];
    if !limit_hit then
      match !best_sel with
      | Some s -> C_inc (!best_cost, s)
      | None -> C_none
    else
      match !best_sel with
      | Some s -> C_opt (!best_cost, s)
      | None -> C_infeasible

(* ---- the staged solve: reduce, decompose, search ---- *)

let solve_raw ~node_limit ~lp_bound ~reductions ~poll p cands =
  let n = p.n_elems in
  if n = 0 then { status = Optimal; cost = 0.0; chosen = []; nodes = 0 }
  else begin
    let cover_cnt = Array.make n 0 in
    Array.iter
      (fun c -> Bitset.iter (fun e -> cover_cnt.(e) <- cover_cnt.(e) + 1) c.set)
      cands;
    if Array.exists (fun c -> c = 0) cover_cnt then
      { status = Infeasible; cost = nan; chosen = []; nodes = 0 }
    else begin
      let forced, free, infeasible =
        if reductions then
          fix_unique ~n_elems:n (dominance_prune ~n_elems:n cands)
        else ([], cands, false)
      in
      if infeasible then { status = Infeasible; cost = nan; chosen = []; nodes = 0 }
      else begin
        let comps =
          if reductions then split_components free
          else if Array.length free = 0 then []
          else [ free ]
        in
        Mbr_obs.Metrics.incr ~by:(List.length comps) m_components;
        let nodes = ref 0 in
        let limit = ref false in
        let failed = ref false in
        let comp_infeasible = ref false in
        let cost = ref 0.0 in
        let sel = ref [] in
        List.iter
          (fun comp ->
            if not !comp_infeasible then
              match solve_component ~lp_bound ~node_limit ~poll ~nodes comp with
              | C_opt (c, s) ->
                cost := !cost +. c;
                sel := s @ !sel
              | C_inc (c, s) ->
                limit := true;
                cost := !cost +. c;
                sel := s @ !sel
              | C_none ->
                limit := true;
                failed := true
              | C_infeasible -> comp_infeasible := true)
          comps;
        if !comp_infeasible then
          { status = Infeasible; cost = nan; chosen = []; nodes = !nodes }
        else if !failed then
          (* budget gone before any full cover of some component: there
             is no incumbent to assemble, only the limit to report *)
          { status = Feasible; cost = nan; chosen = []; nodes = !nodes }
        else begin
          let cost = List.fold_left (fun a (c : cand) -> a +. c.w) !cost forced in
          let chosen =
            List.sort compare (List.map (fun (c : cand) -> c.idx) (forced @ !sel))
          in
          let status = if !limit then Feasible else Optimal in
          { status; cost; chosen; nodes = !nodes }
        end
      end
    end
  end

let solve ?(node_limit = 2_000_000) ?(lp_bound = true) ?(reductions = true)
    ?cancel p =
  Mbr_obs.Metrics.incr m_solves;
  let poll =
    match cancel with
    | None -> fun () -> false
    | Some t -> fun () -> Mbr_util.Cancel.check t
  in
  let r =
    Mbr_obs.Trace.with_span ~name:"ilp.solve"
      ~args:
        [
          ("n_elems", Mbr_obs.Trace.Int p.n_elems);
          ("n_cands", Mbr_obs.Trace.Int (Array.length p.candidates));
        ]
      (fun () ->
        (* prepare once: the same candidate array feeds the reduction
           pass, every component's root LP and the branch-and-bound *)
        let cands = prepare p in
        solve_raw ~node_limit ~lp_bound ~reductions ~poll p cands)
  in
  Mbr_obs.Metrics.incr ~by:r.nodes m_nodes;
  (* [Feasible] only ever arises from the node limit tripping. *)
  if r.status = Feasible then Mbr_obs.Metrics.incr m_limit_hits;
  (match cancel with
  | Some t when Mbr_util.Cancel.cancelled t -> Mbr_obs.Metrics.incr m_cancelled
  | _ -> ());
  r

let brute_force p =
  let cands = prepare p in
  let n = p.n_elems in
  let m = Array.length cands in
  if m > 25 then invalid_arg "Set_partition.brute_force: too many candidates";
  let full = Bitset.of_list n (List.init n Fun.id) in
  let best_cost = ref infinity in
  let best_sel = ref None in
  for mask = 0 to (1 lsl m) - 1 do
    let covered = ref (Bitset.create n) in
    let cost = ref 0.0 in
    let ok = ref true in
    for k = 0 to m - 1 do
      if mask land (1 lsl k) <> 0 then begin
        if not (Bitset.disjoint !covered cands.(k).set) then ok := false
        else begin
          covered := Bitset.union !covered cands.(k).set;
          cost := !cost +. cands.(k).w
        end
      end
    done;
    if !ok && Bitset.equal !covered full && !cost < !best_cost then begin
      best_cost := !cost;
      best_sel := Some mask
    end
  done;
  match !best_sel with
  | None -> { status = Infeasible; cost = nan; chosen = []; nodes = 1 lsl m }
  | Some mask ->
    let chosen = ref [] in
    for k = m - 1 downto 0 do
      if mask land (1 lsl k) <> 0 then chosen := cands.(k).idx :: !chosen
    done;
    { status = Optimal; cost = !best_cost; chosen = !chosen; nodes = 1 lsl m }
