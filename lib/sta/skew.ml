module Placement = Mbr_place.Placement

type config = { bound : float }

let default_config = { bound = 120.0 }

(* sweeps at most, and the step fraction each sweep applies *)
let iterations = 8

let damping = 0.6

type report = {
  wns_before : float;
  wns_after : float;
  tns_before : float;
  tns_after : float;
  max_abs_skew : float;
  sweeps_run : int;
}

(* One register's skew step given its current worst D/Q slacks: balance
   the two sides when either violates; one-sided registers are pushed
   whole-hog in the helpful direction. *)
let step s_d s_q =
  if Float.is_finite s_d && Float.is_finite s_q then begin
    if Float.min s_d s_q < 0.0 then (s_q -. s_d) /. 2.0 *. damping else 0.0
  end
  else if Float.is_finite s_d && s_d < 0.0 then -.s_d *. damping
  else if Float.is_finite s_q && s_q < 0.0 then s_q *. damping
  else 0.0

(* [step] is provably 0 whenever min(s_D, s_Q) >= 0: every branch that
   returns a nonzero delta requires a negative finite slack on a
   connected side. And a register already at the bound with a nonzero
   delta clamps back to its current value, below the 0.5 ps move
   threshold. So a sweep can only move registers with min(s_D, s_Q) < 0
   — the active set — and [Engine.update_skews_touched] reports the
   complete set of registers whose D/Q slacks an applied move batch can
   have changed, so slacks only need re-reading for those. Each sweep
   steps the active set off the cached slacks: because the move deltas
   are Jacobi (all read under the pre-sweep assignment), visiting order
   cannot change the move set, so the sweep computes exactly the move
   set of a whole-design sweep ([full_sweep:true], kept as the
   property-test reference) while reading O(touched) slacks from the
   engine per iteration instead of O(registers). *)
let optimize ?(config = default_config) ?(full_sweep = false) ?cancel eng =
  (* every slack read is worst-corner: under a multi-corner set a sweep
     balances each register's worst D side against its worst Q side,
     whichever corners those come from *)
  Engine.refresh eng;
  let regs, slot = Engine.register_index eng in
  let n = Array.length regs in
  let wns_before, tns_before = Engine.wns_tns eng in
  let clamp v = Float.max (-.config.bound) (Float.min config.bound v) in
  (* flat mirrors of the engine's skew table: snapshots are an
     Array.blit, restore is a diff — no per-sweep assoc lists *)
  let cur = Array.init n (fun i -> Engine.skew eng regs.(i)) in
  let best = Array.copy cur in
  let best_tns = ref tns_before and best_wns = ref wns_before in
  (* cached per-register worst D/Q slacks, valid under the current
     assignment: refreshed only for the registers a move batch touched *)
  let sd = Array.make n infinity and sq = Array.make n infinity in
  let refresh_slacks i =
    let r = regs.(i) in
    sd.(i) <- Engine.reg_d_slack eng r;
    sq.(i) <- Engine.reg_q_slack eng r
  in
  if not full_sweep then
    for i = 0 to n - 1 do
      refresh_slacks i
    done;
  let sweeps = ref 0 in
  let poll () =
    match cancel with Some t -> Mbr_util.Cancel.check t | None -> false
  in
  Mbr_obs.Trace.with_span ~name:"skew.sweeps" (fun () ->
  try
     for _ = 1 to iterations do
       (* cancellation exits like convergence does: the best assignment
          seen so far is restored below, never a half-applied sweep *)
       if poll () then raise Exit;
       incr sweeps;
       (* Jacobi sweep: read every candidate slack under the current
          assignment, then apply all moves at once; the engine patches
          only the affected timing cones. *)
       let moves = ref [] in
       if full_sweep then
         for i = n - 1 downto 0 do
           let r = regs.(i) in
           let delta = step (Engine.reg_d_slack eng r) (Engine.reg_q_slack eng r) in
           let next = clamp (cur.(i) +. delta) in
           if Float.abs (next -. cur.(i)) > 0.5 then moves := (i, next) :: !moves
         done
       else
         (* the active set, off the cached slacks: a register outside
            it provably cannot move *)
         for i = n - 1 downto 0 do
           if Float.min sd.(i) sq.(i) < 0.0 then begin
             let next = clamp (cur.(i) +. step sd.(i) sq.(i)) in
             if Float.abs (next -. cur.(i)) > 0.5 then moves := (i, next) :: !moves
           end
         done;
       if !moves = [] then raise Exit;
       let assignments = List.map (fun (i, next) -> (regs.(i), next)) !moves in
       let touched = Engine.update_skews_touched ?cancel eng assignments in
       List.iter (fun (i, next) -> cur.(i) <- next) !moves;
       if not full_sweep then
         List.iter
           (fun r ->
             if r >= 0 && r < Array.length slot && slot.(r) >= 0 then
               refresh_slacks slot.(r))
           touched;
       let wns, tns = Engine.wns_tns eng in
       if (tns, wns) > (!best_tns, !best_wns) then begin
         best_tns := tns;
         best_wns := wns;
         Array.blit cur 0 best 0 n
       end
     done
  with Exit -> ());
  (* restore the best assignment seen; only the diffs reach the engine *)
  let restore = ref [] in
  for i = n - 1 downto 0 do
    if cur.(i) <> best.(i) then restore := (regs.(i), best.(i)) :: !restore
  done;
  if !restore <> [] then Engine.update_skews eng !restore;
  let wns_after, tns_after = Engine.wns_tns eng in
  let max_abs_skew =
    Array.fold_left (fun acc s -> Float.max acc (Float.abs s)) 0.0 best
  in
  { wns_before; wns_after; tns_before; tns_after; max_abs_skew; sweeps_run = !sweeps }
