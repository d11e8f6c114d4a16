type relation = Le | Ge | Eq

type var = int

type row = { terms : (var * float) list; rel : relation; rhs : float }

type t = {
  mutable lbs : float list; (* reversed *)
  mutable ubs : float list; (* reversed *)
  mutable objs : float list; (* reversed *)
  mutable nv : int;
  mutable rows : row list; (* reversed *)
}

type status = Optimal | Infeasible | Unbounded

type solution = {
  status : status;
  objective : float;
  values : float array;
  duals : float array;
}

let create () = { lbs = []; ubs = []; objs = []; nv = 0; rows = [] }

let add_var ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0) t =
  t.lbs <- lb :: t.lbs;
  t.ubs <- ub :: t.ubs;
  t.objs <- obj :: t.objs;
  let v = t.nv in
  t.nv <- t.nv + 1;
  v

let add_constraint t terms rel rhs = t.rows <- { terms; rel; rhs } :: t.rows

let eps = 1e-9

let feas_eps = 1e-7

(* Mapping from an original variable to standard-form (>= 0) variables. *)
type encoding =
  | Shifted of int * float (* x = y_k + lb *)
  | Mirrored of int * float (* x = ub - y_k *)
  | Split of int * int (* x = y_pos - y_neg *)

(* Telemetry counters (no-op when Mbr_obs is disabled): the ILP layer's
   "simplex work" roll-up is pivots, the one O(m·n) unit of the
   algorithm. *)
let m_solves = Mbr_obs.Metrics.counter "lp.simplex_solves"

let m_pivots = Mbr_obs.Metrics.counter "lp.simplex_pivots"

let solve t =
  Mbr_obs.Metrics.incr m_solves;
  let nv = t.nv in
  let lbs = Array.of_list (List.rev t.lbs) in
  let ubs = Array.of_list (List.rev t.ubs) in
  let objs = Array.of_list (List.rev t.objs) in
  let user_rows = List.rev t.rows in
  (* 1. Encode original variables as non-negative standard variables. *)
  let n_std = ref 0 in
  let fresh () =
    let k = !n_std in
    incr n_std;
    k
  in
  let enc =
    Array.init nv (fun j ->
        let lb = lbs.(j) and ub = ubs.(j) in
        if lb > ub +. eps then (* empty box -> force infeasibility below *)
          Shifted (fresh (), nan)
        else if Float.is_finite lb then Shifted (fresh (), lb)
        else if Float.is_finite ub then Mirrored (fresh (), ub)
        else begin
          let p = fresh () in
          let n = fresh () in
          Split (p, n)
        end)
  in
  let empty_box = Array.exists (fun j -> lbs.(j) > ubs.(j) +. eps) (Array.init nv Fun.id) in
  if empty_box then
    { status = Infeasible; objective = nan; values = Array.make nv nan; duals = [||] }
  else begin
    (* Extra rows for finite upper bounds of shifted variables. *)
    let bound_rows =
      List.concat
        (List.init nv (fun j ->
             match enc.(j) with
             | Shifted (_, _) when Float.is_finite ubs.(j) ->
               [ { terms = [ (j, 1.0) ]; rel = Le; rhs = ubs.(j) } ]
             | Shifted _ | Mirrored _ | Split _ -> []))
    in
    let all_rows = user_rows @ bound_rows in
    let m = List.length all_rows in
    (* Count slack variables needed. *)
    let n_slack =
      List.fold_left
        (fun acc r -> match r.rel with Le | Ge -> acc + 1 | Eq -> acc)
        0 all_rows
    in
    let n_struct = !n_std in
    let n_total = n_struct + n_slack + m (* + artificials *) in
    let rhs_col = n_total in
    let tab = Array.make_matrix m (n_total + 1) 0.0 in
    let basis = Array.make m (-1) in
    (* 2. Fill structural coefficients, translating the encoding. The
       substitution also shifts the right-hand side. *)
    let slack_idx = ref n_struct in
    List.iteri
      (fun i r ->
        let rhs = ref r.rhs in
        List.iter
          (fun (j, c) ->
            if j < 0 || j >= nv then invalid_arg "Simplex: bad variable";
            match enc.(j) with
            | Shifted (k, lb) ->
              tab.(i).(k) <- tab.(i).(k) +. c;
              rhs := !rhs -. (c *. lb)
            | Mirrored (k, ub) ->
              tab.(i).(k) <- tab.(i).(k) -. c;
              rhs := !rhs -. (c *. ub)
            | Split (p, n) ->
              tab.(i).(p) <- tab.(i).(p) +. c;
              tab.(i).(n) <- tab.(i).(n) -. c)
          r.terms;
        (match r.rel with
        | Le ->
          tab.(i).(!slack_idx) <- 1.0;
          incr slack_idx
        | Ge ->
          tab.(i).(!slack_idx) <- -1.0;
          incr slack_idx
        | Eq -> ());
        tab.(i).(rhs_col) <- !rhs)
      all_rows;
    (* 3. Make every rhs non-negative, then install artificials. The
       negation flips the row's dual sign, so remember it: duals are
       reported for the rows as the caller stated them. *)
    let negated = Array.make m false in
    for i = 0 to m - 1 do
      if tab.(i).(rhs_col) < 0.0 then begin
        negated.(i) <- true;
        for c = 0 to n_total do
          tab.(i).(c) <- -.tab.(i).(c)
        done
      end;
      let art = n_struct + n_slack + i in
      tab.(i).(art) <- 1.0;
      basis.(i) <- art
    done;
    (* Objective rows: phase-2 costs on structural vars; phase-1 costs on
       artificials. Both are kept as reduced-cost rows and updated by the
       same pivots. obj_const accumulates the constant from substitution. *)
    let cost2 = Array.make (n_total + 1) 0.0 in
    let obj_const = ref 0.0 in
    for j = 0 to nv - 1 do
      let c = objs.(j) in
      if c <> 0.0 then
        match enc.(j) with
        | Shifted (k, lb) ->
          cost2.(k) <- cost2.(k) +. c;
          obj_const := !obj_const +. (c *. lb)
        | Mirrored (k, ub) ->
          cost2.(k) <- cost2.(k) -. c;
          obj_const := !obj_const +. (c *. ub)
        | Split (p, n) ->
          cost2.(p) <- cost2.(p) +. c;
          cost2.(n) <- cost2.(n) -. c
    done;
    let cost1 = Array.make (n_total + 1) 0.0 in
    for a = n_struct + n_slack to n_total - 1 do
      cost1.(a) <- 1.0
    done;
    (* Price out the initial basis (artificials) from the phase-1 row. *)
    for i = 0 to m - 1 do
      for c = 0 to n_total do
        cost1.(c) <- cost1.(c) -. tab.(i).(c)
      done
    done;
    let pivot cost_rows prow pcol =
      Mbr_obs.Metrics.incr m_pivots;
      let pr = tab.(prow) in
      let pv = pr.(pcol) in
      for c = 0 to n_total do
        pr.(c) <- pr.(c) /. pv
      done;
      for i = 0 to m - 1 do
        if i <> prow then begin
          let f = tab.(i).(pcol) in
          if Float.abs f > 0.0 then begin
            let ri = tab.(i) in
            for c = 0 to n_total do
              ri.(c) <- ri.(c) -. (f *. pr.(c))
            done
          end
        end
      done;
      List.iter
        (fun cr ->
          let f = cr.(pcol) in
          if Float.abs f > 0.0 then
            for c = 0 to n_total do
              cr.(c) <- cr.(c) -. (f *. pr.(c))
            done)
        cost_rows;
      basis.(prow) <- pcol
    in
    (* Bland's rule iteration on the given reduced-cost row, restricted to
       columns < col_limit (used to bar artificials in phase 2). *)
    let iterate cost cost_rows col_limit =
      let continue_ = ref true in
      let result = ref Optimal in
      while !continue_ do
        (* entering column: smallest index with negative reduced cost *)
        let enter = ref (-1) in
        (try
           for c = 0 to col_limit - 1 do
             if cost.(c) < -.eps then begin
               enter := c;
               raise Exit
             end
           done
         with Exit -> ());
        if !enter < 0 then continue_ := false
        else begin
          let pcol = !enter in
          (* ratio test with Bland tie-break on basis index *)
          let prow = ref (-1) in
          let best = ref infinity in
          for i = 0 to m - 1 do
            let a = tab.(i).(pcol) in
            if a > eps then begin
              let ratio = tab.(i).(rhs_col) /. a in
              if
                ratio < !best -. eps
                || (ratio < !best +. eps && !prow >= 0 && basis.(i) < basis.(!prow))
                || (ratio < !best +. eps && !prow < 0)
              then begin
                best := ratio;
                prow := i
              end
            end
          done;
          if !prow < 0 then begin
            result := Unbounded;
            continue_ := false
          end
          else pivot cost_rows !prow pcol
        end
      done;
      !result
    in
    (* Phase 1. *)
    let st1 = iterate cost1 [ cost1; cost2 ] n_total in
    let phase1_obj = -.cost1.(rhs_col) in
    if st1 = Unbounded || phase1_obj > feas_eps then
      { status = Infeasible; objective = nan; values = Array.make nv nan; duals = [||] }
    else begin
      (* Drive any artificial still in the basis out (it must be at zero). *)
      let n_real = n_struct + n_slack in
      for i = 0 to m - 1 do
        if basis.(i) >= n_real then begin
          let found = ref (-1) in
          (try
             for c = 0 to n_real - 1 do
               if Float.abs tab.(i).(c) > eps then begin
                 found := c;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot [ cost1; cost2 ] i !found
          (* else: redundant row; harmless to leave the zero artificial. *)
        end
      done;
      (* Phase 2, artificial columns barred. *)
      let st2 = iterate cost2 [ cost2 ] n_real in
      match st2 with
      | Unbounded ->
        { status = Unbounded; objective = neg_infinity; values = Array.make nv nan;
          duals = [||] }
      | Infeasible | Optimal ->
        let std_vals = Array.make n_total 0.0 in
        for i = 0 to m - 1 do
          if basis.(i) < n_total then std_vals.(basis.(i)) <- tab.(i).(rhs_col)
        done;
        let values =
          Array.init nv (fun j ->
              match enc.(j) with
              | Shifted (k, lb) -> std_vals.(k) +. lb
              | Mirrored (k, ub) -> ub -. std_vals.(k)
              | Split (p, n) -> std_vals.(p) -. std_vals.(n))
        in
        let objective = -.cost2.(rhs_col) +. !obj_const in
        (* Row i's artificial column is e_i in the (possibly negated)
           row system, so its phase-2 reduced cost is 0 - y·e_i = -y_i:
           the simplex multipliers fall out of the final tableau for
           free. Only the caller's rows are reported; the internal
           upper-bound rows appended after them are not. *)
        let duals =
          Array.init (List.length user_rows) (fun i ->
              let y = -.cost2.(n_struct + n_slack + i) in
              if negated.(i) then -.y else y)
        in
        { status = Optimal; objective; values; duals }
    end
  end
