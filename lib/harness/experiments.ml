module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Allocate = Mbr_core.Allocate
module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Weight = Mbr_core.Weight
module Texttab = Mbr_util.Texttab
module Stats = Mbr_util.Stats
module Point = Mbr_geom.Point
module Placement = Mbr_place.Placement

type design_run = {
  profile : P.t;
  result : Flow.result;
  hist_before : (int * int) list;
  hist_after : (int * int) list;
  metrics : Mbr_obs.Metrics.snapshot;
}

let run_profile ?(options = Flow.default_options) ?jobs profile =
  let options =
    match jobs with None -> options | Some _ -> { options with Flow.jobs }
  in
  let g = G.generate profile in
  let hist_before = G.width_histogram g.G.design in
  let result =
    Flow.run ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let hist_after = G.width_histogram g.G.design in
  (* Registry state right after the flow: all zeros unless the caller
     enabled [Mbr_obs.Metrics] (and reset between runs, if it wants
     per-run rather than cumulative numbers). *)
  let metrics = Mbr_obs.Metrics.snapshot () in
  { profile; result; hist_before; hist_after; metrics }

(* ---- Table 1 ---- *)

let table1 runs =
  let tab =
    Texttab.create
      ~headers:
        [
          "Design"; "Row"; "Cells"; "Area um2"; "WL-Clk um"; "WL-Other um";
          "Total Regs"; "Comp Regs"; "Clk Bufs"; "Clk Cap fF"; "Clk Pwr uW";
          "TNS ns"; "Fail EP"; "Ovfl"; "Time s";
        ]
  in
  let metric_row name row (m : Metrics.t) runtime =
    Texttab.add_row tab
      [
        name;
        row;
        Texttab.fmt_int m.Metrics.cells;
        Texttab.fmt_int (int_of_float m.Metrics.area);
        Texttab.fmt_int (int_of_float m.Metrics.clk_wl);
        Texttab.fmt_int (int_of_float m.Metrics.other_wl);
        Texttab.fmt_int m.Metrics.total_regs;
        Texttab.fmt_int m.Metrics.comp_regs;
        Texttab.fmt_int m.Metrics.clk_bufs;
        Texttab.fmt_int (int_of_float m.Metrics.clk_cap);
        Texttab.fmt_int (int_of_float m.Metrics.clk_power);
        Texttab.fmt_float ~dec:2 (m.Metrics.tns /. 1000.0);
        Texttab.fmt_int m.Metrics.failing;
        Texttab.fmt_int m.Metrics.ovfl;
        (match runtime with Some t -> Texttab.fmt_float ~dec:1 t | None -> "-");
      ]
  in
  List.iter
    (fun r ->
      let b = r.result.Flow.before and a = r.result.Flow.after in
      metric_row r.profile.P.name "Base" b None;
      metric_row "" "Ours" a (Some r.result.Flow.runtime_s);
      let pct fmt base v =
        ignore fmt;
        Texttab.fmt_pct (Stats.pct_change base v)
      in
      let f = float_of_int in
      Texttab.add_row tab
        [
          "";
          "Save";
          pct "" (f b.Metrics.cells) (f a.Metrics.cells);
          pct "" b.Metrics.area a.Metrics.area;
          pct "" b.Metrics.clk_wl a.Metrics.clk_wl;
          pct "" b.Metrics.other_wl a.Metrics.other_wl;
          pct "" (f b.Metrics.total_regs) (f a.Metrics.total_regs);
          pct "" (f b.Metrics.comp_regs) (f a.Metrics.comp_regs);
          pct "" (f b.Metrics.clk_bufs) (f a.Metrics.clk_bufs);
          pct "" b.Metrics.clk_cap a.Metrics.clk_cap;
          pct "" b.Metrics.clk_power a.Metrics.clk_power;
          pct "" b.Metrics.tns a.Metrics.tns;
          pct "" (f b.Metrics.failing) (f a.Metrics.failing);
          pct "" (f b.Metrics.ovfl) (f a.Metrics.ovfl);
          "";
        ];
      Texttab.add_sep tab)
    runs;
  Texttab.render tab

let table1_summary runs =
  let avg get =
    Stats.mean
      (Array.of_list
         (List.map
            (fun r ->
              Stats.pct_change
                (get r.result.Flow.before)
                (get r.result.Flow.after))
            runs))
  in
  let f g r = float_of_int (g r) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Average savings across designs (paper's section 5 claims):\n";
  Printf.bprintf buf "  total registers   : %5.1f %%   (paper: 29 %%)\n"
    (avg (f (fun m -> m.Metrics.total_regs)));
  Printf.bprintf buf "  composable regs   : %5.1f %%   (paper: 48 %%)\n"
    (avg (f (fun m -> m.Metrics.comp_regs)));
  Printf.bprintf buf "  clock capacitance : %5.1f %%   (paper:  6 %%)\n"
    (avg (fun m -> m.Metrics.clk_cap));
  Printf.bprintf buf "  clock power       : %5.1f %%   (paper: \"similar\" to cap)\n"
    (avg (fun m -> m.Metrics.clk_power));
  let clk_frac =
    Stats.mean
      (Array.of_list
         (List.map (fun r -> r.result.Flow.before.Metrics.clk_power_frac) runs))
  in
  Printf.bprintf buf
    "  base clock share  : %5.1f %%   (paper intro: 20-40 %% of dynamic)\n"
    (100.0 *. clk_frac);
  Printf.bprintf buf "  clock buffers     : %5.1f %%   (paper:  4 %%)\n"
    (avg (f (fun m -> m.Metrics.clk_bufs)));
  Printf.bprintf buf "  signal wirelength : %5.1f %%   (paper: not increased)\n"
    (avg (fun m -> m.Metrics.other_wl));
  Printf.bprintf buf "  overflow edges    : %5.1f %%   (paper: marginal delta)\n"
    (avg (f (fun m -> m.Metrics.ovfl)));
  let fail_frac =
    Stats.mean
      (Array.of_list
         (List.map
            (fun r ->
              float_of_int r.result.Flow.before.Metrics.failing
              /. float_of_int (max 1 r.result.Flow.before.Metrics.endpoints))
            runs))
  in
  Printf.bprintf buf "  base failing EPs  : %5.1f %%   (paper: ~38 %% of endpoints)\n"
    (100.0 *. fail_frac);
  Buffer.contents buf

(* ---- Fig. 5 ---- *)

let fig5 runs =
  let widths = [ 1; 2; 4; 8 ] in
  let tab =
    Texttab.create
      ~headers:
        ("Design" :: "Row"
        :: List.map (fun w -> Printf.sprintf "%d-bit" w) widths)
  in
  List.iter
    (fun r ->
      let row label hist =
        Texttab.add_row tab
          (label
           :: (match label with "" -> "after" | _ -> "before")
           :: List.map
                (fun w ->
                  match List.assoc_opt w hist with
                  | Some n -> string_of_int n
                  | None -> "0")
                widths)
      in
      row r.profile.P.name r.hist_before;
      row "" r.hist_after;
      Texttab.add_sep tab)
    runs;
  Texttab.render tab

(* ---- Fig. 6 ---- *)

type fig6_row = {
  name : string;
  base_regs : int;
  ilp_regs : int;
  heuristic_regs : int;
}

let fig6 ?jobs profiles =
  let rows =
    List.map
      (fun p ->
        let ilp = run_profile ?jobs p in
        let greedy =
          run_profile ?jobs
            ~options:{ Flow.default_options with Flow.mode = `Greedy_share }
            p
        in
        {
          name = p.P.name;
          base_regs = ilp.result.Flow.before.Metrics.total_regs;
          ilp_regs = ilp.result.Flow.after.Metrics.total_regs;
          heuristic_regs = greedy.result.Flow.after.Metrics.total_regs;
        })
      profiles
  in
  let tab =
    Texttab.create
      ~headers:[ "Design"; "Base"; "Heuristic"; "ILP"; "Heur (norm)"; "ILP (norm)" ]
  in
  List.iter
    (fun r ->
      Texttab.add_row tab
        [
          r.name;
          Texttab.fmt_int r.base_regs;
          Texttab.fmt_int r.heuristic_regs;
          Texttab.fmt_int r.ilp_regs;
          Texttab.fmt_float ~dec:3
            (float_of_int r.heuristic_regs /. float_of_int r.base_regs);
          Texttab.fmt_float ~dec:3
            (float_of_int r.ilp_regs /. float_of_int r.base_regs);
        ])
    rows;
  let gain =
    Stats.mean
      (Array.of_list
         (List.map
            (fun r ->
              Stats.pct_change (float_of_int r.heuristic_regs)
                (float_of_int r.ilp_regs))
            rows))
  in
  let s =
    Texttab.render tab
    ^ Printf.sprintf
        "ILP vs heuristic allocator: %.1f %% fewer registers on average\n\
         (paper Fig. 6: ILP better on all designs, 12 %% on average).\n"
        gain
  in
  (rows, s)

(* ---- Ablations ---- *)

let with_candidate_cfg options f =
  {
    options with
    Flow.allocate =
      {
        options.Flow.allocate with
        Allocate.candidate = f options.Flow.allocate.Allocate.candidate;
      };
  }

let ablation_partition_bound ?jobs profile bounds =
  let tab =
    Texttab.create
      ~headers:[ "Partition bound"; "Final regs"; "Merged"; "Blocks"; "Runtime s" ]
  in
  List.iter
    (fun bound ->
      let options =
        {
          Flow.default_options with
          Flow.allocate = { Allocate.default_config with Allocate.partition_bound = bound };
        }
      in
      let r = run_profile ~options ?jobs profile in
      Texttab.add_row tab
        [
          string_of_int bound;
          Texttab.fmt_int r.result.Flow.after.Metrics.total_regs;
          Texttab.fmt_int r.result.Flow.n_regs_merged;
          Texttab.fmt_int r.result.Flow.n_blocks;
          Texttab.fmt_float ~dec:1 r.result.Flow.runtime_s;
        ])
    bounds;
  Texttab.render tab
  ^ "(paper section 3: below ~20 the QoR drops; above 30 only runtime grows)\n"

let ablation_weights ?jobs profile =
  let run use_weights =
    let options =
      with_candidate_cfg Flow.default_options (fun c ->
          { c with Candidate.use_weights })
    in
    run_profile ~options ?jobs profile
  in
  let w = run true and nw = run false in
  let tab =
    Texttab.create ~headers:[ "Weights"; "Final regs"; "Ovfl edges"; "Signal WL um" ]
  in
  let row label (r : design_run) =
    Texttab.add_row tab
      [
        label;
        Texttab.fmt_int r.result.Flow.after.Metrics.total_regs;
        Texttab.fmt_int r.result.Flow.after.Metrics.ovfl;
        Texttab.fmt_int (int_of_float r.result.Flow.after.Metrics.other_wl);
      ]
  in
  row "placement-aware (paper)" w;
  row "uniform 1/bits (off)" nw;
  Texttab.render tab
  ^ "(without weights the ILP merges intertwined groups: more merges, but\n\
     blocked hulls compete for routing — the paper's section 3.2 rationale)\n"

let ablation_incomplete ?jobs profile =
  let run allow =
    let options =
      with_candidate_cfg Flow.default_options (fun c ->
          { c with Candidate.allow_incomplete = allow })
    in
    run_profile ~options ?jobs profile
  in
  let on = run true and off = run false in
  let tab =
    Texttab.create
      ~headers:[ "Incomplete MBRs"; "Final regs"; "Incomplete used"; "Area um2" ]
  in
  let row label (r : design_run) =
    Texttab.add_row tab
      [
        label;
        Texttab.fmt_int r.result.Flow.after.Metrics.total_regs;
        Texttab.fmt_int r.result.Flow.n_incomplete;
        Texttab.fmt_int (int_of_float r.result.Flow.after.Metrics.area);
      ]
  in
  row "enabled (5% rule)" on;
  row "disabled" off;
  Texttab.render tab

let ablation_global_entry ?jobs profile =
  let run global =
    let g = G.generate profile in
    if global then G.to_global_placement g;
    let options = { Flow.default_options with Flow.jobs } in
    let r =
      Flow.run ~options ~design:g.G.design ~placement:g.G.placement
        ~library:g.G.library ~sta_config:g.G.sta_config ()
    in
    r
  in
  let detailed = run false and global = run true in
  let tab =
    Texttab.create
      ~headers:[ "Entry point"; "Merges"; "Regs merged"; "Final regs"; "Clk cap fF" ]
  in
  let row label (r : Flow.result) =
    Texttab.add_row tab
      [
        label;
        Texttab.fmt_int r.Flow.n_merges;
        Texttab.fmt_int r.Flow.n_regs_merged;
        Texttab.fmt_int r.Flow.after.Metrics.total_regs;
        Texttab.fmt_int (int_of_float r.Flow.after.Metrics.clk_cap);
      ]
  in
  row "detailed placement" detailed;
  row "global placement" global;
  Texttab.render tab
  ^ "(the paper's conclusion: the flow applies at either entry point;\n\
     the global-placement run works with overlapping, off-grid cells)\n"

let ablation_decompose ?jobs profile =
  let run decompose =
    run_profile ~options:{ Flow.default_options with Flow.decompose } ?jobs profile
  in
  let off = run false and on = run true in
  let tab =
    Texttab.create
      ~headers:
        [ "Decompose+recompose"; "Split"; "Final regs"; "Clk cap fF"; "Area um2" ]
  in
  let row label (r : design_run) =
    Texttab.add_row tab
      [
        label;
        Texttab.fmt_int r.result.Flow.n_split;
        Texttab.fmt_int r.result.Flow.after.Metrics.total_regs;
        Texttab.fmt_int (int_of_float r.result.Flow.after.Metrics.clk_cap);
        Texttab.fmt_int (int_of_float r.result.Flow.after.Metrics.area);
      ]
  in
  row "off (paper's experiments)" off;
  row "on (paper's future work)" on;
  Texttab.render tab
  ^ "(the split halves may re-merge with better partners; the paper\n\
     proposes exactly this for designs like D4 that start 8-bit-rich)\n"

let ablation_skew ?jobs profile =
  let run skew =
    let options = { Flow.default_options with Flow.skew; resize = false } in
    run_profile ~options ?jobs profile
  in
  let on = run (Some Mbr_sta.Skew.default_config) and off = run None in
  let tab =
    Texttab.create ~headers:[ "Useful skew"; "TNS ns"; "WNS ps"; "Failing EPs" ]
  in
  let row label (r : design_run) =
    Texttab.add_row tab
      [
        label;
        Texttab.fmt_float ~dec:2 (r.result.Flow.after.Metrics.tns /. 1000.0);
        Texttab.fmt_float ~dec:1 r.result.Flow.after.Metrics.wns;
        Texttab.fmt_int r.result.Flow.after.Metrics.failing;
      ]
  in
  row "after composition (Fig. 4)" on;
  row "disabled" off;
  Texttab.render tab

(* ---- the §8 recovery scenario ---- *)

let recovery_profile = P.flat ~seed:3

(* stress corner heavy on the cell derate: a drifted bank's microns
   cost load (wire cap into the driving cells' delay — a cell-derated
   term in this model), so the derate multiplies what each micron of
   drift costs and drifted MBRs go worst-corner-negative without ever
   showing up at typical *)
let recovery_corners =
  match Mbr_sta.Corner.parse_set "typical,stress:2.0:2.0:1.2" with
  | Ok c -> c
  | Error m -> failwith m

let recovery_probe () =
  let g = G.generate recovery_profile in
  let eng =
    Mbr_sta.Engine.build ~config:g.G.sta_config ~corners:recovery_corners
      g.G.placement
  in
  let wns, _ = Mbr_sta.Engine.wns_tns eng in
  (wns, g.G.sta_config.Mbr_sta.Engine.clock_period)

type recovery_run = {
  first : Flow.result;
  recovered : Flow.result;
  wall_s : float;
  mean_drift_um : float;
}

let recovery_run ~widen ~period ~recover =
  (* generation is deterministic, so each run gets a pristine copy —
     composition mutates the design *)
  let g = G.generate recovery_profile in
  let sta_config = { g.G.sta_config with Mbr_sta.Engine.clock_period = period } in
  (* useful skew stays on but with a tight post-CTS bound: it can
     absorb the mild baseline violations the derated corner uncovers
     (that is ordinary corner-aware closure) but not the tens of ps a
     drifted bank loses — those only splitting repairs, which is what
     separates the recovery loop's work from the skew stage's *)
  let options =
    {
      Flow.default_options with
      Flow.skew = Some { Mbr_sta.Skew.bound = 5.0 };
      Flow.corners = [| Mbr_sta.Corner.typical |];
    }
  in
  let session =
    Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config ()
  in
  let first = Flow.Session.recompose session in
  (* post-compose placement drift on the composed banks, through the
     edit-logged placement API (the session refreshes from the log):
     each lands at the die corner farthest from where the flow placed
     it (its nets' weighted centroid) *)
  let pl = Flow.Session.placement session in
  let fp = Placement.floorplan pl in
  let total_drift = ref 0.0 in
  List.iter
    (fun cid ->
      let loc = Placement.location pl cid in
      let box = Placement.footprint pl cid in
      let w = box.Mbr_geom.Rect.hx -. box.Mbr_geom.Rect.lx in
      let h = box.Mbr_geom.Rect.hy -. box.Mbr_geom.Rect.ly in
      let far =
        List.fold_left
          (fun acc (x, y) ->
            let p = Mbr_place.Floorplan.clamp_ll fp ~w ~h (Point.make x y) in
            if Point.manhattan p loc > Point.manhattan acc loc then p else acc)
          loc
          [ (-1e9, -1e9); (-1e9, 1e9); (1e9, -1e9); (1e9, 1e9) ]
      in
      total_drift := !total_drift +. Point.manhattan far loc;
      Placement.set pl cid far)
    first.Flow.new_mbrs;
  if widen then Flow.Session.set_corners session recovery_corners;
  let t0 = Unix.gettimeofday () in
  let recovered = Flow.Session.recompose ~recover session in
  {
    first;
    recovered;
    wall_s = Unix.gettimeofday () -. t0;
    mean_drift_um =
      !total_drift /. float_of_int (max 1 (List.length first.Flow.new_mbrs));
  }
