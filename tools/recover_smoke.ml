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

module P = Mbr_designgen.Profile
module G = Mbr_designgen.Generate
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Corner = Mbr_sta.Corner
module Pl = Mbr_place.Placement
module Fp = Mbr_place.Floorplan
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("recover-smoke: FAIL " ^ m);
      exit 1)
    fmt

let corners =
  match Corner.parse_set "typical,stress:2.0:2.0:1.2" with
  | Ok c -> c
  | Error m -> failwith m

let profile = P.flat ~seed:3

(* relax the clock so the un-composed design is clean at the stress
   corner: worst-corner convergence is achievable, hence the loop's to
   win or lose *)
let period =
  let g = G.generate profile in
  let eng = Mbr_sta.Engine.build ~config:g.G.sta_config ~corners g.G.placement in
  Mbr_sta.Engine.analyze eng;
  let wns, _ = Mbr_sta.Engine.wns_tns eng in
  g.G.sta_config.Mbr_sta.Engine.clock_period -. Float.min wns 0.0

(* compose under typical, misplace the composed banks, widen the
   corner set (or not: the control), recompose with a recovery budget *)
let scenario ~widen ~recover =
  let g = G.generate profile in
  let sta_config = { g.G.sta_config with Mbr_sta.Engine.clock_period = period } in
  let options =
    {
      Flow.default_options with
      Flow.skew =
        Some { Mbr_sta.Skew.default_config with Mbr_sta.Skew.bound = 5.0 };
      Flow.corners = [| Corner.typical |];
    }
  in
  let session =
    Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config ()
  in
  let first = Flow.Session.recompose session in
  let pl = Flow.Session.placement session in
  let fp = Pl.floorplan pl in
  List.iter
    (fun cid ->
      let loc = Pl.location pl cid in
      let box = Pl.footprint pl cid in
      let w = box.Rect.hx -. box.Rect.lx and h = box.Rect.hy -. box.Rect.ly in
      let far =
        List.fold_left
          (fun acc cand ->
            let p = Fp.clamp_ll fp ~w ~h cand in
            if Point.manhattan p loc > Point.manhattan acc loc then p else acc)
          loc
          [
            { Point.x = -1e9; y = -1e9 };
            { Point.x = -1e9; y = 1e9 };
            { Point.x = 1e9; y = -1e9 };
            { Point.x = 1e9; y = 1e9 };
          ]
      in
      Pl.set pl cid far)
    first.Flow.new_mbrs;
  if widen then Flow.Session.set_corners session corners;
  (first, Flow.Session.recompose ~recover session)

let () =
  let budget = 4 in
  (* control: same displacement, corner set stays typical *)
  let _, control = scenario ~widen:false ~recover:budget in
  if control.Flow.recover_rounds <> 0 then
    fail "control (typical-only) ran %d recovery rounds, want 0"
      control.Flow.recover_rounds;
  (* recovery run, traced: the artifacts feed telemetry_check *)
  Mbr_obs.Trace.enable ();
  Mbr_obs.Metrics.enable ();
  let first, r = scenario ~widen:true ~recover:budget in
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
  if List.length r.Flow.after.Metrics.corners <> Array.length corners then
    fail "per-corner QoR rows missing (%d, want %d)"
      (List.length r.Flow.after.Metrics.corners)
      (Array.length corners);
  if wns < 0.0 then
    fail "did not converge: worst-corner WNS %.1f ps after %d rounds" wns
      r.Flow.recover_rounds;
  print_endline "recover-smoke: ok"
