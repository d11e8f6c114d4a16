(* recover_smoke — CI tripwire for the compose <-> decompose recovery
   loop (the bench's section 8 scenario, pinned).

   The session composes the flat profile under the typical corner,
   then an incremental-placement pass misplaces the composed banks
   (each lands at the die corner farthest from where the flow put it)
   and sign-off widens the corner set to a cell-derated stress corner.
   The next recompose must (a) run at least one recovery round —
   splitting the worst-corner-negative banks, pinning the halves and
   re-entering the flow — and (b) converge: final worst-corner WNS
   >= 0 within the round budget.

   A control run keeps the corner set at typical through the identical
   displacement: it must recover NOTHING, proving the derate set — not
   the displacement itself — is what forces the decompose rounds.

   The recovery run executes with tracing and metrics enabled; pass
   TRACE.json METRICS.json paths to get artifacts for telemetry_check
   (which then verifies the flow.recover span and the multi-corner /
   decompose counters against them).

   Usage: recover_smoke.exe [TRACE.json METRICS.json] *)

module E = Mbr_harness.Experiments
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("recover-smoke: FAIL " ^ m);
      exit 1)
    fmt

(* relax the clock so the un-composed design is clean at the stress
   corner: worst-corner convergence is achievable, hence the loop's to
   win or lose *)
let period =
  let wns, period = E.recovery_probe () in
  period -. Float.min wns 0.0

let () =
  let budget = 4 in
  (* control: same displacement, corner set stays typical *)
  let control = (E.recovery_run ~widen:false ~period ~recover:budget).E.recovered in
  if control.Flow.recover_rounds <> 0 then
    fail "control (typical-only) ran %d recovery rounds, want 0"
      control.Flow.recover_rounds;
  (* recovery run, traced: the artifacts feed telemetry_check *)
  Mbr_obs.Trace.enable ();
  Mbr_obs.Metrics.enable ();
  let { E.first; recovered = r; _ } = E.recovery_run ~widen:true ~period ~recover:budget in
  let wns = r.Flow.after.Metrics.wns in
  Printf.printf
    "recover-smoke: %d merges, then %d recovery rounds, %d registers split, \
     final worst-corner WNS %.1f ps\n"
    first.Flow.n_merges r.Flow.recover_rounds r.Flow.recover_splits wns;
  List.iter
    (fun (name, wns, tns) ->
      Printf.printf "recover-smoke:   corner %-10s wns %8.1f  tns %10.1f\n" name
        wns tns)
    r.Flow.after.Metrics.corners;
  (match Sys.argv with
  | [| _; trace; metrics |] ->
    Mbr_obs.Trace.write trace;
    Mbr_obs.Metrics.write metrics
  | _ -> ());
  if r.Flow.recover_rounds < 1 then
    fail "widened corner set forced no recovery round";
  if r.Flow.recover_splits < 1 then fail "recovery round split no register";
  if List.length r.Flow.after.Metrics.corners <> Array.length E.recovery_corners
  then
    fail "per-corner QoR rows missing (%d, want %d)"
      (List.length r.Flow.after.Metrics.corners)
      (Array.length E.recovery_corners);
  if wns < 0.0 then
    fail "did not converge: worst-corner WNS %.1f ps after %d rounds" wns
      r.Flow.recover_rounds;
  print_endline "recover-smoke: ok"
