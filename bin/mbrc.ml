(* mbrc — the command-line driver for the MBR-composition library.

   Subcommands:
     run       run the full flow on one design profile
     eco       persistent session: perturb + recompose rounds
     table1    regenerate the paper's Table 1 on D1-D5
     fig5      MBR bit-width histograms before/after
     fig6      ILP vs heuristic allocator comparison
     ablations partition bound / weights / incomplete / skew / decompose
     export    write a design as Verilog + DEF + Liberty
     compose   run the flow on Verilog + DEF + Liberty files from disk
     example   the paper's Figs. 1-3 worked example
     client    send one request to a running mbrd daemon
     top       live dashboard over a running mbrd *)

open Cmdliner
module P = Mbr_designgen.Profile
module G = Mbr_designgen.Generate
module Eco = Mbr_designgen.Eco
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Allocate = Mbr_core.Allocate
module Candidate = Mbr_core.Candidate
module E = Mbr_harness.Experiments

(* Everything every subcommand shares: profile resolution, option
   assembly, and the cmdliner terms themselves. Subcommands compose
   their Term from these — no per-command redefinitions. *)
module Common_args = struct
  (* [name] passed [profile_arg]'s enum, so it resolves *)
  let profile_of_name name seed scale =
    P.scaled (Option.get (P.of_name ?seed name)) scale

  let options_of ~mode ~no_skew ~no_incomplete ~bound ~decompose ~jobs
      ~corners ~recover =
    {
      Flow.default_options with
      Flow.mode;
      decompose;
      corners = Option.value corners ~default:Flow.default_options.Flow.corners;
      recover;
      jobs;
      skew = (if no_skew then None else Flow.default_options.Flow.skew);
      allocate =
        {
          Allocate.partition_bound = bound;
          candidate =
            {
              Candidate.default_config with
              Candidate.allow_incomplete = not no_incomplete;
            };
        };
    }

  (* Bad values are usage errors: cmdliner rejects them with a usage
     message and exit code 124 before any subcommand runs. *)
  let profile_arg =
    let names = List.map (fun n -> (n, n)) P.names in
    Arg.(value & opt (enum names) "d1" & info [ "p"; "profile" ] ~docv:"NAME"
           ~doc:"Design profile: d1..d5, tiny, or flat (aggregation-hostile \
                 flat netlist).")

  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
           ~doc:"Override the profile's RNG seed.")

  (* A float flag whose values must pass [ok]; [want] names them in the
     usage error. *)
  let float_where ~want ok =
    Arg.conv ~docv:"F"
      ( (fun v ->
          match float_of_string_opt v with
          | Some f when ok f -> Ok f
          | Some _ | None ->
            Error (`Msg (Printf.sprintf "expected %s, got %S" want v))),
        Format.pp_print_float )

  let non_negative =
    Arg.conv ~docv:"N"
      ( (fun v ->
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok n
          | Some _ | None ->
            Error (`Msg (Printf.sprintf "expected a non-negative integer, got %S" v))),
        Format.pp_print_int )

  (* the daemon's [load] applies the same rule to its scale *)
  let scale_arg =
    let positive =
      float_where ~want:"a positive finite number" (fun f ->
          f > 0.0 && Float.is_finite f)
    in
    Arg.(value & opt positive 1.0 & info [ "scale" ] ~docv:"F"
           ~doc:"Scale the register count (e.g. 0.25 for a quick run); a \
                 positive finite number.")

  let mode_arg =
    let modes = [ ("ilp", `Ilp); ("greedy", `Greedy_share); ("clique", `Clique) ] in
    Arg.(value & opt (enum modes) `Ilp & info [ "mode" ] ~docv:"M"
           ~doc:"Allocator: ilp, greedy (weighted heuristic) or clique.")

  let no_skew_arg =
    Arg.(value & flag & info [ "no-skew" ] ~doc:"Disable useful skew after composition.")

  let no_incomplete_arg =
    Arg.(value & flag & info [ "no-incomplete" ] ~doc:"Disallow incomplete MBRs.")

  let bound_arg =
    let hi = Candidate.max_block_size in
    let in_range =
      Arg.conv ~docv:"N"
        ( (fun v ->
            match int_of_string_opt v with
            | Some n when n >= 1 && n <= hi -> Ok n
            | Some _ | None ->
              Error
                (`Msg (Printf.sprintf "expected an integer in 1..%d, got %S" hi v))),
          Format.pp_print_int )
    in
    Arg.(value & opt in_range 30 & info [ "bound" ] ~docv:"N"
           ~doc:(Printf.sprintf
                   "K-partition node bound (paper: 30; 1 to %d, the widest \
                    block a member-set bit mask covers)." hi))

  let decompose_arg =
    Arg.(value & flag & info [ "decompose" ]
           ~doc:"Decompose max-width MBRs before composing (paper's future work).")

  let corners_arg =
    let corner_set =
      Arg.conv ~docv:"SPEC"
        ( (fun spec ->
            Result.map_error (fun m -> `Msg m) (Mbr_sta.Corner.parse_set spec)),
          fun ppf cs ->
            Format.pp_print_string ppf (Mbr_sta.Corner.set_to_string cs) )
    in
    Arg.(value & opt (some corner_set) None & info [ "corners" ] ~docv:"SPEC"
           ~doc:"Multi-corner STA: comma-separated corner set, each element \
                 a built-in name (typical, slow, fast, harsh) or a custom \
                 name:cell:wire:setup derate quadruple. All QoR numbers \
                 become worst-corner. Default: typical only.")

  let recover_arg =
    Arg.(value & opt non_negative 0 & info [ "recover" ] ~docv:"N"
           ~doc:"Recovery-round budget: after composing, decompose MBRs \
                 whose worst-corner slack went negative and re-run the flow \
                 on the affected region, up to N rounds (default 0 = off).")

  let jobs_arg =
    let count = Arg.conv' ~docv:"N" (Mbr_util.Pool.parse_jobs, Format.pp_print_int) in
    Arg.(value & opt (some count) None & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the per-block allocate fan-out \
                 (default 1 = serial; 0 = auto-detect cores; a negative count \
                 is rejected). Results are identical at any setting.")

  (* ---- telemetry, shared by every subcommand ---- *)

  type telemetry = {
    trace_out : string option;
    metrics_out : string option;
    log_level : Logs.level option;
  }

  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.json"
           ~doc:"Record a span trace of the run and write it as Chrome \
                 trace_event JSON, loadable as-is in chrome://tracing or \
                 https://ui.perfetto.dev.")

  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE.json"
           ~doc:"Collect the telemetry counters/histograms (STA refreshes, \
                 ILP nodes, simplex pivots, compat pairs, block solve times, \
                 ...) and write a JSON snapshot at exit.")

  let log_level_arg =
    let level =
      Arg.conv ~docv:"LEVEL"
        ( Mbr_obs.Log.level_of_string,
          fun ppf l -> Format.pp_print_string ppf (Logs.level_to_string l) )
    in
    Arg.(value & opt level (Some Logs.Warning) & info [ "log-level" ]
           ~docv:"LEVEL"
           ~doc:"Log verbosity on stderr: quiet, error, warning, info or \
                 debug.")

  let telemetry_term =
    let mk trace_out metrics_out log_level =
      { trace_out; metrics_out; log_level }
    in
    Term.(const mk $ trace_arg $ metrics_arg $ log_level_arg)

  (* Run a subcommand body under the requested telemetry: install the
     log reporter, switch tracing/metrics on up front, and write the
     output files even when the body raises (a trace of a crashed run
     is exactly the trace one wants). *)
  let with_telemetry tele f =
    Mbr_obs.Log.setup ~level:tele.log_level ();
    if tele.trace_out <> None then Mbr_obs.Trace.enable ();
    if tele.metrics_out <> None then Mbr_obs.Metrics.enable ();
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun path ->
            Mbr_obs.Trace.write path;
            Printf.eprintf "wrote trace (%d events) to %s\n%!"
              (Mbr_obs.Trace.n_events ()) path)
          tele.trace_out;
        Option.iter
          (fun path ->
            Mbr_obs.Metrics.write path;
            Printf.eprintf "wrote metrics to %s\n%!" path)
          tele.metrics_out)
      f
end

open Common_args

let run_cmd =
  let run tele profile seed scale mode no_skew no_incomplete bound decompose
      jobs corners recover =
    with_telemetry tele @@ fun () ->
    let p = profile_of_name profile seed scale in
    let options =
      options_of ~mode ~no_skew ~no_incomplete ~bound ~decompose ~jobs ~corners
        ~recover
    in
    Printf.printf "running %s (%d registers)...\n%!" p.P.name p.P.n_registers;
    let r = E.run_profile ~options p in
    List.iter
      (fun (name, wns, tns) ->
        Printf.printf "corner %-10s wns %8.1f  tns %10.1f\n" name wns tns)
      r.E.result.Flow.after.Metrics.corners;
    if r.E.result.Flow.recover_rounds > 0 then
      Printf.printf "recovery: %d rounds, %d registers split\n"
        r.E.result.Flow.recover_rounds r.E.result.Flow.recover_splits;
    Format.printf "before: %a@." Metrics.pp_row r.E.result.Flow.before;
    Format.printf "after : %a@." Metrics.pp_row r.E.result.Flow.after;
    Printf.printf
      "%d split, %d MBRs from %d registers (%d incomplete, %d resized), %d blocks, %.1f s\n"
      r.E.result.Flow.n_split r.E.result.Flow.n_merges
      r.E.result.Flow.n_regs_merged r.E.result.Flow.n_incomplete
      r.E.result.Flow.n_resized r.E.result.Flow.n_blocks r.E.result.Flow.runtime_s;
    let bt = r.E.result.Flow.alloc_block_times in
    Printf.printf
      "allocate: %d jobs, block solves total %.2f s (mean %.4f, max %.4f)\n"
      r.E.result.Flow.alloc_jobs bt.Allocate.total_s bt.Allocate.mean_s
      bt.Allocate.max_s
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the MBR-composition flow on one design.")
    Term.(const run $ telemetry_term $ profile_arg $ seed_arg $ scale_arg
          $ mode_arg $ no_skew_arg $ no_incomplete_arg $ bound_arg
          $ decompose_arg $ jobs_arg $ corners_arg $ recover_arg)

let eco_cmd =
  let run tele profile seed scale mode jobs rounds eco_seed move_frac corners
      recover =
    with_telemetry tele @@ fun () ->
    let p = profile_of_name profile seed scale in
    let options =
      options_of ~mode ~no_skew:false ~no_incomplete:false ~bound:30
        ~decompose:false ~jobs ~corners ~recover
    in
    let g = G.generate p in
    (* no --corners: analyze under the profile's own derate set *)
    let options =
      if corners = None then { options with Flow.corners = g.G.corners }
      else options
    in
    Printf.printf "eco session on %s (%d registers), %d rounds\n%!" p.P.name
      p.P.n_registers rounds;
    let session =
      Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
        ~library:g.G.library ~sta_config:g.G.sta_config ()
    in
    let rng = Mbr_util.Rng.create eco_seed in
    let config = { Eco.default_config with Eco.move_frac } in
    for round = 0 to rounds do
      if round > 0 then begin
        let s = Eco.perturb ~config rng g in
        Printf.printf
          "round %d: %d edits (%d moved, %d retyped, %d removed, %d added)\n%!"
          round (Eco.total s) s.Eco.moved s.Eco.retyped s.Eco.removed s.Eco.added
      end;
      let r = Flow.Session.recompose session in
      Printf.printf "  recompose: %d merges, %d blocks solved, %.2f s\n"
        r.Flow.n_merges r.Flow.n_blocks r.Flow.runtime_s;
      if r.Flow.recover_rounds > 0 then
        Printf.printf "  recovery: %d rounds, %d registers split\n"
          r.Flow.recover_rounds r.Flow.recover_splits;
      Format.printf "  after: %a@." Metrics.pp_row r.Flow.after
    done
  in
  let rounds_arg =
    Arg.(value & opt non_negative 3 & info [ "rounds" ] ~docv:"N"
           ~doc:"Number of perturb + recompose rounds after the initial one \
                 (non-negative).")
  in
  let eco_seed_arg =
    Arg.(value & opt int 1 & info [ "eco-seed" ] ~docv:"N"
           ~doc:"RNG seed for the ECO perturbations (independent of the \
                 design-generation seed).")
  in
  let move_frac_arg =
    let fraction =
      float_where ~want:"a number in [0, 1]" (fun f -> f >= 0.0 && f <= 1.0)
    in
    Arg.(value & opt fraction Eco.default_config.Eco.move_frac
         & info [ "move-frac" ] ~docv:"F"
             ~doc:"Fraction of registers jittered per round, in [0, 1] \
                   (default 0.10).")
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:"Open a persistent session and alternate random ECO batches with \
             incremental recompose, printing each round's merges, block \
             count and QoR.")
    Term.(const run $ telemetry_term $ profile_arg $ seed_arg $ scale_arg
          $ mode_arg $ jobs_arg $ rounds_arg $ eco_seed_arg $ move_frac_arg
          $ corners_arg $ recover_arg)

let profiles_scaled scale = List.map (fun p -> P.scaled p scale) P.all

let table1_cmd =
  let run tele scale jobs =
    with_telemetry tele @@ fun () ->
    let runs = List.map (E.run_profile ?jobs) (profiles_scaled scale) in
    print_string (E.table1 runs);
    print_newline ();
    print_string (E.table1_summary runs)
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1 on D1-D5.")
    Term.(const run $ telemetry_term $ scale_arg $ jobs_arg)

let fig5_cmd =
  let run tele scale jobs =
    with_telemetry tele @@ fun () ->
    let runs = List.map (E.run_profile ?jobs) (profiles_scaled scale) in
    print_string (E.fig5 runs)
  in
  Cmd.v (Cmd.info "fig5" ~doc:"MBR bit-width histograms before/after (Fig. 5).")
    Term.(const run $ telemetry_term $ scale_arg $ jobs_arg)

let fig6_cmd =
  let run tele scale jobs =
    with_telemetry tele @@ fun () ->
    let _, s = E.fig6 ?jobs (profiles_scaled scale) in
    print_string s
  in
  Cmd.v (Cmd.info "fig6" ~doc:"ILP vs heuristic allocator (Fig. 6).")
    Term.(const run $ telemetry_term $ scale_arg $ jobs_arg)

let ablations_cmd =
  let run tele profile seed scale jobs =
    with_telemetry tele @@ fun () ->
    let p = profile_of_name profile seed scale in
    print_endline "--- partition bound (section 3) ---";
    print_string (E.ablation_partition_bound ?jobs p [ 10; 20; 30; 40 ]);
    print_endline "\n--- placement-aware weights (section 3.2) ---";
    print_string (E.ablation_weights ?jobs p);
    print_endline "\n--- incomplete MBRs (section 3) ---";
    print_string (E.ablation_incomplete ?jobs p);
    print_endline "\n--- useful skew (Fig. 4) ---";
    print_string (E.ablation_skew ?jobs p);
    print_endline "\n--- decompose + recompose (section 5 future work) ---";
    print_string (E.ablation_decompose ?jobs p);
    print_endline "\n--- global vs detailed placement entry ---";
    print_string (E.ablation_global_entry ?jobs p)
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Design-choice ablation studies.")
    Term.(const run $ telemetry_term $ profile_arg $ seed_arg $ scale_arg
          $ jobs_arg)

let export_cmd =
  let run tele profile seed scale dir compose svg jobs =
    with_telemetry tele @@ fun () ->
    let p = profile_of_name profile seed scale in
    let g = Mbr_designgen.Generate.generate p in
    let write path content =
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    let base = Filename.concat dir (String.lowercase_ascii p.P.name) in
    if svg && compose then
      write (base ^ "_before.svg")
        (Mbr_export.Svg.render ~title:(p.P.name ^ " before composition")
           g.Mbr_designgen.Generate.placement);
    let highlight =
      if compose then begin
        let options =
          { Flow.default_options with Flow.jobs }
        in
        let r =
          Flow.run ~options ~design:g.Mbr_designgen.Generate.design
            ~placement:g.Mbr_designgen.Generate.placement
            ~library:g.Mbr_designgen.Generate.library
            ~sta_config:g.Mbr_designgen.Generate.sta_config ()
        in
        Printf.printf "composed: %d MBRs from %d registers\n" r.Flow.n_merges
          r.Flow.n_regs_merged;
        r.Flow.new_mbrs
      end
      else []
    in
    if svg then
      write
        (base ^ (if compose then "_after.svg" else ".svg"))
        (Mbr_export.Svg.render ~highlight
           ~title:(p.P.name ^ if compose then " after composition" else "")
           g.Mbr_designgen.Generate.placement);
    write (base ^ ".v")
      (Mbr_export.Verilog.to_verilog g.Mbr_designgen.Generate.design);
    write (base ^ ".def") (Mbr_export.Def.to_def g.Mbr_designgen.Generate.placement);
    write (base ^ ".lib")
      (Mbr_liberty.Liberty_io.to_liberty
         ~gates:(Mbr_designgen.Generate.gate_cells ())
         g.Mbr_designgen.Generate.library)
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "o"; "outdir" ] ~docv:"DIR"
           ~doc:"Output directory for the .v/.def/.lib files.")
  in
  let compose_arg =
    Arg.(value & flag & info [ "composed" ]
           ~doc:"Run MBR composition before exporting.")
  in
  let svg_arg =
    Arg.(value & flag & info [ "svg" ]
           ~doc:"Also render the placement as SVG (before/after with \
                 $(b,--composed), new MBRs outlined).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a design as structural Verilog + DEF + Liberty (+ SVG).")
    Term.(const run $ telemetry_term $ profile_arg $ seed_arg $ scale_arg
          $ dir_arg $ compose_arg $ svg_arg $ jobs_arg)

let compose_cmd =
  let run tele netlist def lib outdir period mode no_skew no_incomplete
      decompose bound jobs corners recover =
    with_telemetry tele @@ fun () ->
    let read path =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let library, gate_cells = Mbr_liberty.Liberty_io.of_liberty_full (read lib) in
    let design =
      Mbr_export.Verilog.of_verilog ~library
        ~gates:(Mbr_export.Verilog.resolver_of_gates gate_cells)
        (read netlist)
    in
    let placement = Mbr_export.Def.of_def design (read def) in
    let options =
      options_of ~mode ~no_skew ~no_incomplete ~bound ~decompose ~jobs ~corners
        ~recover
    in
    Printf.printf "loaded %s: %d cells, %d registers\n%!"
      (Mbr_netlist.Design.name design)
      (Mbr_netlist.Design.n_cells design)
      (List.length (Mbr_netlist.Design.registers design));
    let sta_config =
      { Mbr_sta.Engine.default_config with Mbr_sta.Engine.clock_period = period }
    in
    let r = Flow.run ~options ~design ~placement ~library ~sta_config () in
    Format.printf "before: %a@." Metrics.pp_row r.Flow.before;
    Format.printf "after : %a@." Metrics.pp_row r.Flow.after;
    let write path content =
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    let base =
      Filename.concat outdir (Mbr_netlist.Design.name design ^ "_composed")
    in
    write (base ^ ".v") (Mbr_export.Verilog.to_verilog design);
    write (base ^ ".def") (Mbr_export.Def.to_def placement)
  in
  let netlist_arg =
    Arg.(required & opt (some string) None & info [ "netlist" ] ~docv:"FILE.v"
           ~doc:"Structural Verilog netlist (see mbrc export).")
  in
  let def_arg =
    Arg.(required & opt (some string) None & info [ "def" ] ~docv:"FILE.def"
           ~doc:"DEF placement.")
  in
  let lib_arg =
    Arg.(required & opt (some string) None & info [ "lib" ] ~docv:"FILE.lib"
           ~doc:"Liberty register library.")
  in
  let dir_arg =
    Arg.(value & opt string "." & info [ "o"; "outdir" ] ~docv:"DIR"
           ~doc:"Where to write the composed netlist/placement.")
  in
  let period_arg =
    Arg.(value & opt float 800.0 & info [ "period" ] ~docv:"PS"
           ~doc:"Clock period for timing analysis (ps).")
  in
  Cmd.v
    (Cmd.info "compose"
       ~doc:"Run MBR composition on a Verilog+DEF+Liberty design from disk.")
    Term.(const run $ telemetry_term $ netlist_arg $ def_arg $ lib_arg
          $ dir_arg $ period_arg $ mode_arg $ no_skew_arg $ no_incomplete_arg
          $ decompose_arg $ bound_arg $ jobs_arg $ corners_arg $ recover_arg)

let example_cmd =
  let run tele jobs =
    with_telemetry tele @@ fun () ->
    let module PE = Mbr_core.Paper_example in
    (match jobs with
    | Some _ ->
      print_endline "(-j noted but irrelevant here: the worked example is 6 registers)"
    | None -> ());
    let t = PE.build () in
    print_endline "paper worked example (Figs. 1-3); see also examples/quickstart.exe";
    List.iter
      (fun names ->
        Printf.printf "  w(%s) = %.3f\n" (String.concat "" names)
          (PE.weight_of t names))
      [ [ "A"; "B" ]; [ "B"; "C" ]; [ "A"; "B"; "D" ]; [ "A"; "B"; "C" ];
        [ "A"; "B"; "C"; "D" ]; [ "A"; "E" ]; [ "A"; "C"; "E" ] ];
    let groups, cost = PE.solve ~allow_incomplete:false t in
    Printf.printf "ILP (complete only): %d registers, cost %.4f\n"
      (List.length groups) cost
  in
  Cmd.v (Cmd.info "example" ~doc:"The paper's worked example (Figs. 1-3).")
    Term.(const run $ telemetry_term $ jobs_arg)

(* ---- the ECO service (DESIGN.md §14) ---- *)

let socket_arg =
  Arg.(value & opt string Mbr_service.Server.default_config.Mbr_service.Server.socket_path
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let client_cmd =
  let module C = Mbr_service.Client in
  let module Pr = Mbr_service.Protocol in
  let run socket verb session profile scale seed frac timeout_s path corners
      recover progress cursor flight =
    let verb =
      match Pr.verb_of_string verb with
      | Some v -> v
      | None ->
        failwith
          (Printf.sprintf "unknown verb %S (%s)" verb
             (String.concat ", " (List.map Pr.verb_to_string Pr.all_verbs)))
    in
    let c = C.connect socket in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    (* progress events go to stderr as raw JSON lines, one per stage, so
       the pretty response on stdout stays machine-readable *)
    let on_event =
      if progress then
        Some
          (fun ev ->
            Printf.eprintf "%s\n%!" (Mbr_obs.Json.to_string (Pr.progress_to_json ev)))
      else None
    in
    match
      C.call c verb ?on_event ~params:(fun r ->
          { r with Pr.session; profile; scale; seed; frac; timeout_s; path;
            corners; recover; cursor; flight;
            progress = (if progress then Some true else None) })
    with
    | Ok data -> print_string (Mbr_obs.Json.to_string_pretty data)
    | Error { Pr.code; message } ->
      Printf.eprintf "error %s: %s\n" (Pr.error_code_to_string code) message;
      exit 1
  in
  let verb_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VERB"
           ~doc:"load | perturb | recompose | set-corners | query-metrics \
                 | export-trace | telemetry | shutdown")
  in
  let session_arg =
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"NAME"
           ~doc:"Target session (load/perturb/recompose).")
  in
  let frac_arg =
    Arg.(value & opt (some float) None & info [ "frac" ] ~docv:"F"
           ~doc:"perturb: scale the default ECO fractions; the daemon \
                 refuses a scale that takes one past 1 (above 10 today).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"recompose: cancellation deadline; past it the request is \
                 answered cancelled and the session stays usable.")
  in
  let path_arg =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"FILE"
           ~doc:"export-trace: output file on the daemon's side.")
  in
  let opt_profile_arg =
    Arg.(value & opt (some string) None & info [ "p"; "profile" ] ~docv:"NAME"
           ~doc:"load: design profile (tiny, flat, d1..d5); D1-D5 keep \
                 their shipped seed unless --seed is given.")
  in
  let opt_scale_arg =
    Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"F"
           ~doc:"load: scale the register count.")
  in
  let opt_corners_arg =
    Arg.(value & opt (some string) None & info [ "corners" ] ~docv:"SPEC"
           ~doc:"load / set-corners: comma-separated corner set (built-in \
                 names or name:cell:wire:setup quadruples).")
  in
  let opt_recover_arg =
    Arg.(value & opt (some int) None & info [ "recover" ] ~docv:"N"
           ~doc:"recompose: recovery-round budget for this pass.")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"recompose: stream per-stage progress events and print each \
                 as a JSON line on stderr as it arrives.")
  in
  let cursor_arg =
    Arg.(value & opt (some int) None & info [ "cursor" ] ~docv:"N"
           ~doc:"telemetry: ask for the metrics delta since this cursor \
                 (from a previous telemetry response).")
  in
  let flight_arg =
    Arg.(value & flag & info [ "flight" ]
           ~doc:"telemetry: include the flight-recorder dump (last N \
                 answered request digests).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running mbrd daemon and print the JSON \
             answer (exit 1 with the error on stderr otherwise).")
    Term.(const run $ socket_arg $ verb_arg $ session_arg $ opt_profile_arg
          $ opt_scale_arg $ seed_arg $ frac_arg $ timeout_arg $ path_arg
          $ opt_corners_arg $ opt_recover_arg $ progress_arg $ cursor_arg
          $ Term.(const (fun b -> if b then Some true else None) $ flight_arg))

(* `mbrc top` — a terminal dashboard over the telemetry verb. Each
   frame polls with the previous frame's cursor, so per-verb request
   rates and latency quantiles come from the *delta* histograms (what
   happened during the last interval), while gauges (heap, RSS, queue
   depth) are absolute. *)
let top_cmd =
  let module C = Mbr_service.Client in
  let module Pr = Mbr_service.Protocol in
  let module M = Mbr_obs.Metrics in
  let module J = Mbr_obs.Json in
  let module T = Mbr_util.Texttab in
  let render_frame ~frame ~mode ~interval data snap =
    let buf = Buffer.create 2048 in
    let gauge name =
      List.assoc_opt name snap.M.gauges |> Option.value ~default:0.0
    in
    let queue_depth =
      Option.bind (J.member "queue_depth" data) J.to_int
      |> Option.value ~default:0
    in
    let sessions =
      Option.bind (J.member "sessions" data) J.to_list
      |> Option.value ~default:[]
    in
    Printf.bprintf buf
      "mbrd top — frame %d (%s)  sessions %d  exec queue %d  heap %.1f MB  \
       rss %.1f MB\n"
      frame mode (List.length sessions) queue_depth (gauge "gc.heap_mb")
      (gauge "rss.mb");
    (* per-verb traffic, from the labeled svc.latency_s family *)
    let verb_rows =
      List.filter_map
        (fun (key, h) ->
          let base, labels = M.split_series key in
          match (base, List.assoc_opt "verb" labels) with
          | "svc.latency_s", Some v when h.M.count > 0 -> Some (v, h)
          | _ -> None)
        snap.M.histograms
    in
    if verb_rows <> [] then begin
      let tab =
        T.create ~headers:[ "verb"; "req"; "req/s"; "p50 ms"; "p99 ms" ]
      in
      List.iter
        (fun (v, h) ->
          T.add_row tab
            [
              v;
              string_of_int h.M.count;
              (if mode = "delta" then
                 T.fmt_float ~dec:1 (float_of_int h.M.count /. interval)
               else "-");
              T.fmt_float ~dec:2 (1000.0 *. M.quantile h 0.5);
              T.fmt_float ~dec:2 (1000.0 *. M.quantile h 0.99);
            ])
        (List.sort compare verb_rows);
      Buffer.add_string buf (T.render tab)
    end
    else
      Buffer.add_string buf
        (if mode = "delta" then "(no requests this interval)\n"
         else "(no requests yet)\n");
    (* per-session status, including the in-flight recompose heartbeat *)
    if sessions <> [] then begin
      let tab =
        T.create
          ~headers:
            [ "session"; "state"; "recomposes"; "served"; "pending"; "now" ]
      in
      List.iter
        (fun s ->
          let str k =
            Option.bind (J.member k s) J.to_str |> Option.value ~default:"?"
          in
          let int k =
            Option.bind (J.member k s) J.to_int |> Option.value ~default:0
          in
          let now =
            match
              Option.map Pr.progress_of_json (J.member "progress" s)
            with
            | Some (Ok ev) ->
              Printf.sprintf "%s r%d %d blocks%s" ev.Pr.pe_stage
                ev.Pr.pe_round ev.Pr.pe_total
                (match ev.Pr.pe_wns with
                | Some w -> Printf.sprintf " wns %.0f" w
                | None -> "")
            | _ -> "idle"
          in
          T.add_row tab
            [
              str "name";
              (match Option.bind (J.member "loaded" s) J.to_bool with
              | Some true -> "ready"
              | _ -> "loading");
              string_of_int (int "recomposes");
              string_of_int (int "served");
              string_of_int (int "pending");
              now;
            ])
        sessions;
      Buffer.add_string buf (T.render tab)
    end;
    Buffer.contents buf
  in
  let run socket interval count =
    if not (Float.is_finite interval && interval > 0.0) then
      failwith "--interval must be positive";
    let c = C.connect socket in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    let clear = Unix.isatty Unix.stdout in
    let cursor = ref None in
    let frame = ref 0 in
    while count <= 0 || !frame < count do
      if !frame > 0 then Unix.sleepf interval;
      incr frame;
      match C.telemetry c ?cursor:!cursor () with
      | Error { Pr.code; message } ->
        Printf.eprintf "error %s: %s\n" (Pr.error_code_to_string code) message;
        exit 1
      | Ok data ->
        cursor := Option.bind (J.member "cursor" data) J.to_int;
        let mode =
          Option.bind (J.member "mode" data) J.to_str
          |> Option.value ~default:"full"
        in
        let snap =
          match
            Option.map M.snapshot_of_json (J.member "metrics" data)
          with
          | Some (Ok s) -> s
          | _ -> { M.counters = []; gauges = []; histograms = [] }
        in
        if clear then print_string "\027[2J\027[H";
        print_string (render_frame ~frame:!frame ~mode ~interval data snap);
        flush stdout
    done
  in
  let interval_arg =
    Arg.(value & opt float 2.0 & info [ "n"; "interval" ] ~docv:"SECONDS"
           ~doc:"Refresh interval between telemetry polls.")
  in
  let count_arg =
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N"
           ~doc:"Stop after N frames (0 = run until interrupted).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal dashboard over a running mbrd: per-verb request \
             rates and latency quantiles (from telemetry deltas), executor \
             queue depth, process vitals, and per-session status including \
             in-flight recompose progress.")
    Term.(const run $ socket_arg $ interval_arg $ count_arg)

let () =
  Mbr_util.Runtime.tune ();
  let doc = "timing-driven incremental multi-bit register composition (DAC'17)" in
  let info = Cmd.info "mbrc" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ run_cmd; eco_cmd; table1_cmd; fig5_cmd; fig6_cmd; ablations_cmd;
      export_cmd; compose_cmd; example_cmd; client_cmd; top_cmd ]))
