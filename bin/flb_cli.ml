(* flb — command-line front end.

   Subcommands:
     gen       generate a task graph (paper workloads or synthetic shapes)
     info      print structural statistics of a task graph
     schedule  schedule a graph with a chosen algorithm
     compare   run every algorithm on one graph and tabulate the results
     trace     print the FLB execution trace (Table 1 format)
     execute   run a graph on real OCaml domains (lib/runtime)
     analyze   makespan attribution for an executed trace (realized critical
               path, slack, busy/idle, stragglers)
     experiment regenerate a figure of the paper from the CLI
     serve     run the scheduling daemon (lib/service)
     request   send one schedule request to a running daemon
     stream    ship a graph to a daemon incrementally (lib/stream)
     metrics   fetch a daemon's Prometheus metrics
     stats     live introspection snapshot of a running daemon
     route     run the sharding router in front of several daemons
     drain     gracefully remove a backend from a routed fleet *)

open Cmdliner
open! Flb_taskgraph
open! Flb_platform
module E = Flb_experiments
module R = Flb_runtime

(* --- shared argument parsers --- *)

let graph_arg =
  let doc = "Task graph file (lib/taskgraph/serial.mli format), a .flb program file (lib/lang/parse.mli), or 'fig1' for the paper's example graph." in
  Arg.(required & opt (some string) None & info [ "g"; "graph" ] ~docv:"FILE" ~doc)

(* A graph that does not parse is a usage error: FILE:LINE: message,
   exit 2, as for a bad schedule file. A file that cannot be opened is
   reported where [Cmd.eval] is called, at the bottom of this file. *)
let load_graph path =
  let fail line message =
    Printf.eprintf "%s:%d: %s\n" path line message;
    exit 2
  in
  if path = "fig1" then Example.fig1 ()
  else
    match
      if Filename.check_suffix path ".flb" then
        Flb_lang.Program.compile (Flb_lang.Parse.load ~path)
      else Serial.load ~path
    with
    | g -> g
    | exception Serial.Parse_error { line; message } -> fail line message
    | exception Flb_lang.Parse.Parse_error { position; message } ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let line = ref 1 in
      String.iteri (fun i c -> if c = '\n' && i < position then incr line) text;
      fail !line message

let procs_arg =
  let doc = "Number of processors in the clique machine." in
  Arg.(value & opt int 4 & info [ "p"; "procs" ] ~docv:"P" ~doc)

let mesh_arg =
  let doc =
    "Use a 2-D mesh machine of the given dimensions (e.g. 4x4) instead of a \
     clique; latency multiplies edge costs by the hop distance."
  in
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ r; c ] -> begin
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c when r > 0 && c > 0 -> Ok (r, c)
      | _ -> Error (`Msg "expected ROWSxCOLS with positive integers")
    end
    | _ -> Error (`Msg "expected ROWSxCOLS, e.g. 4x4")
  in
  let print ppf (r, c) = Format.fprintf ppf "%dx%d" r c in
  Arg.(value
       & opt (some (conv (parse, print))) None
       & info [ "mesh" ] ~docv:"RxC" ~doc)

let build_machine procs mesh =
  match mesh with
  | Some (rows, cols) -> Machine.mesh ~rows ~cols
  | None -> Machine.clique ~num_procs:procs

let algo_arg =
  let doc = "Scheduling algorithm: FLB, ETF, MCP, FCP, DSC-LLB, HLFET, DLS, ISH, SARKAR-LLB or RR." in
  Arg.(value & opt string "FLB" & info [ "a"; "algorithm"; "algo" ] ~docv:"ALGO" ~doc)

let seed_arg =
  let doc = "Random seed (weights are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

(* --- gen --- *)

let gen_cmd =
  let workload_arg =
    let doc =
      "Workload: lu, laplace, stencil, fft, gauss, cholesky, chain, diamond, \
       forkjoin, random."
    in
    Arg.(value & opt string "lu" & info [ "w"; "workload" ] ~docv:"KIND" ~doc)
  in
  let tasks_arg =
    let doc = "Approximate number of tasks." in
    Arg.(value & opt int 2000 & info [ "n"; "tasks" ] ~docv:"V" ~doc)
  in
  let ccr_arg =
    let doc = "Target communication-to-computation ratio for random weights; 0 keeps unit weights." in
    Arg.(value & opt float 1.0 & info [ "ccr" ] ~docv:"CCR" ~doc)
  in
  let out_arg =
    let doc = "Output file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run workload tasks ccr seed out =
    let structure =
      match String.lowercase_ascii workload with
      | "lu" -> (E.Workload_suite.lu ~tasks ()).structure
      | "laplace" -> (E.Workload_suite.laplace ~tasks ()).structure
      | "stencil" -> (E.Workload_suite.stencil ~tasks ()).structure
      | "fft" -> (E.Workload_suite.fft ~tasks ()).structure
      | "gauss" ->
        Flb_workloads.Gauss.structure
          ~matrix_size:(Flb_workloads.Lu.matrix_size_for_tasks tasks)
      | "cholesky" ->
        Flb_workloads.Cholesky.structure
          ~tiles:(Flb_workloads.Cholesky.tiles_for_tasks tasks)
      | "chain" -> Flb_workloads.Shapes.chain ~length:tasks
      | "diamond" ->
        Flb_workloads.Shapes.diamond
          ~size:(int_of_float (ceil (sqrt (float_of_int tasks))))
      | "forkjoin" ->
        Flb_workloads.Shapes.fork_join ~branches:8 ~stages:(max 1 (tasks / 9))
      | "random" ->
        Flb_workloads.Random_dag.layered
          ~rng:(Flb_prelude.Rng.create ~seed)
          ~layers:(max 1 (tasks / 10))
          ~min_width:1 ~max_width:20 ~edge_probability:0.2
      | other -> failwith (Printf.sprintf "unknown workload %S" other)
    in
    let g =
      if ccr <= 0.0 then structure
      else
        Flb_workloads.Weights.assign structure
          ~rng:(Flb_prelude.Rng.create ~seed)
          ~ccr
    in
    let text = Serial.to_string g in
    if out = "-" then print_string text
    else begin
      Serial.save g ~path:out;
      Printf.printf "wrote %s: %d tasks, %d edges\n" out (Taskgraph.num_tasks g)
        (Taskgraph.num_edges g)
    end
  in
  let doc = "Generate a task graph." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ workload_arg $ tasks_arg $ ccr_arg $ seed_arg $ out_arg)

(* --- info --- *)

let info_cmd =
  let exact_arg =
    let doc = "Also compute the exact width (cubic; small graphs only)." in
    Arg.(value & flag & info [ "exact-width" ] ~doc)
  in
  let bounds_arg =
    let doc = "Also print makespan lower bounds for this processor count." in
    Arg.(value & opt (some int) None & info [ "bounds" ] ~docv:"P" ~doc)
  in
  let run path exact bounds =
    let g = load_graph path in
    Format.printf "%a@." Taskgraph.pp g;
    Printf.printf "entry tasks:     %d\n" (List.length (Taskgraph.entry_tasks g));
    Printf.printf "exit tasks:      %d\n" (List.length (Taskgraph.exit_tasks g));
    Printf.printf "levels:          %d\n" (Topo.num_levels g);
    Printf.printf "sequential time: %g\n" (Taskgraph.total_comp g);
    Printf.printf "critical path:   %g\n" (Levels.cp_length g);
    Printf.printf "width bounds:    level %d, ready %d\n" (Width.max_level_width g)
      (Width.max_ready_bound g);
    Format.printf "stats:           %a@." Transform.pp_stats (Transform.stats g);
    if exact then Printf.printf "exact width:     %d\n" (Width.exact g);
    match bounds with
    | None -> ()
    | Some procs ->
      Printf.printf "lower bounds (P=%d): cp %.3f, work %.3f, fernandez %.3f\n"
        procs
        (Lower_bounds.computation_critical_path g)
        (Lower_bounds.work_bound g ~procs)
        (Lower_bounds.fernandez_bound g ~procs)
  in
  let doc = "Print structural statistics of a task graph." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ graph_arg $ exact_arg $ bounds_arg)

(* --- schedule --- *)

let schedule_cmd =
  let graph_default_arg =
    let doc =
      "Task graph file (lib/taskgraph/serial.mli format), a .flb program file, \
       or 'fig1' (default) for the paper's example graph."
    in
    Arg.(value & opt string "fig1" & info [ "g"; "graph" ] ~docv:"FILE" ~doc)
  in
  let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Draw a text Gantt chart.") in
  let listing_arg =
    Arg.(value & flag & info [ "listing" ] ~doc:"Print the task-by-task listing.")
  in
  let simulate_arg =
    Arg.(value & flag
         & info [ "simulate" ]
             ~doc:"Replay the schedule in the discrete-event machine and cross-check.")
  in
  let dot_arg =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write a processor-colored DOT file.")
  in
  let chrome_arg =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file (chrome://tracing).")
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG Gantt chart.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Write the schedule itself (reloadable by validate-schedule).")
  in
  let profile_arg =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Run under a live probe and print scheduler telemetry \
                   (iterations, queue operations, per-phase time).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace of the scheduler's own execution \
                   (phase spans, ready-set counter; open in Perfetto).")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write run telemetry as a Prometheus-style text dump \
                   (.json suffix switches to JSON).")
  in
  let run path algo procs mesh gantt listing simulate dot chrome svg save profile
      trace_out metrics_out =
    let g = load_graph path in
    let machine = build_machine procs mesh in
    match E.Registry.find algo with
    | None -> prerr_endline ("unknown algorithm: " ^ algo); exit 2
    | Some a ->
      let telemetry = profile || trace_out <> None || metrics_out <> None in
      let tracer =
        if trace_out <> None then Flb_obs.Trace.create () else Flb_obs.Trace.null
      in
      let registry =
        if metrics_out <> None then Some (Flb_obs.Metrics.create ()) else None
      in
      let s, report =
        if telemetry then
          let s, report = E.Registry.run_with_report ~tracer a g machine in
          (s, Some report)
        else (a.E.Registry.run g machine, None)
      in
      Printf.printf "%s on %d processors: makespan %g, speedup %.2f, efficiency %.2f\n"
        a.E.Registry.name procs (Schedule.makespan s) (Metrics.speedup s)
        (Metrics.efficiency s);
      (match Schedule.validate s with
      | Ok () -> print_endline "validation: ok"
      | Error es ->
        Printf.printf "validation FAILED:\n";
        List.iter (fun e -> Printf.printf "  %s\n" e) es;
        exit 1);
      if simulate then begin
        match Flb_sim.Simulator.run ~tracer ?metrics:registry s with
        | Ok o ->
          Printf.printf "simulation: makespan %g, %d messages, volume %g — %s\n"
            o.Flb_sim.Simulator.makespan o.Flb_sim.Simulator.messages
            o.Flb_sim.Simulator.comm_volume
            (if Flb_sim.Simulator.agrees_with_schedule s o then
               "agrees with analytic schedule"
             else "DISAGREES with analytic schedule")
        | Error _ -> print_endline "simulation: FAILED to replay"
      end;
      (match report with
      | Some r when profile -> print_string (Flb_obs.Probe.render r)
      | Some _ | None -> ());
      (match trace_out with
      | None -> ()
      | Some out ->
        Flb_obs.Trace.save_chrome tracer ~path:out
          ~name:(Printf.sprintf "%s on %s (P=%d)" a.E.Registry.name path procs);
        Printf.printf "wrote %s\n" out);
      (match registry with
      | None -> ()
      | Some reg ->
        Option.iter (fun r -> Flb_obs.Probe.to_metrics reg r) report;
        let open Flb_obs.Metrics in
        Gauge.set (gauge reg ~help:"schedule makespan" "schedule_makespan")
          (Schedule.makespan s);
        Gauge.set (gauge reg ~help:"sequential time / makespan" "schedule_speedup")
          (Metrics.speedup s);
        Gauge.set (gauge reg ~help:"speedup / P" "schedule_efficiency")
          (Metrics.efficiency s);
        Gauge.set
          (gauge reg ~help:"max busy / mean busy" "schedule_load_imbalance")
          (Metrics.load_imbalance s);
        Gauge.set
          (gauge reg ~help:"idle fraction of the P x makespan area"
             "schedule_idle_fraction")
          (Metrics.idle_fraction s);
        let out = Option.get metrics_out in
        if Filename.check_suffix out ".json" then save_json reg ~path:out
        else save_prometheus reg ~path:out;
        Printf.printf "wrote %s\n" out);
      if gantt then print_string (Gantt.render s);
      if listing then print_string (Gantt.render_listing s);
      (match chrome with
      | None -> ()
      | Some out ->
        Chrome_trace.save s ~path:out;
        Printf.printf "wrote %s\n" out);
      (match svg with
      | None -> ()
      | Some out ->
        Svg.save s ~path:out;
        Printf.printf "wrote %s\n" out);
      (match save with
      | None -> ()
      | Some out ->
        Schedule_io.save s ~path:out;
        Printf.printf "wrote %s\n" out);
      match dot with
      | None -> ()
      | Some out ->
        let text =
          Dot.to_string_with_placement g ~proc_of:(fun t -> Schedule.proc s t)
        in
        Out_channel.with_open_text out (fun oc -> output_string oc text);
        Printf.printf "wrote %s\n" out
  in
  let doc = "Schedule a task graph with one algorithm." in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const run $ graph_default_arg $ algo_arg $ procs_arg $ mesh_arg $ gantt_arg
      $ listing_arg $ simulate_arg $ dot_arg $ chrome_arg $ svg_arg $ save_arg
      $ profile_arg $ trace_out_arg $ metrics_out_arg)

(* --- compare --- *)

let compare_cmd =
  let run path procs mesh =
    let g = load_graph path in
    let machine = build_machine procs mesh in
    let mcp_len = Flb_schedulers.Mcp.schedule_length g machine in
    let table =
      E.Table.create ~header:[ "algorithm"; "makespan"; "NSL vs MCP"; "speedup" ]
    in
    List.iter
      (fun (a : E.Registry.t) ->
        let s = a.run g machine in
        E.Table.add_row table
          [
            a.name;
            Printf.sprintf "%g" (Schedule.makespan s);
            E.Table.cell_float (Metrics.nsl s ~reference:mcp_len);
            E.Table.cell_float (Metrics.speedup s);
          ])
      E.Registry.extended_set;
    print_string (E.Table.render table)
  in
  let doc = "Run every algorithm on a graph and tabulate the results." in
  Cmd.v (Cmd.info "compare" ~doc) Term.(const run $ graph_arg $ procs_arg $ mesh_arg)

(* --- compile --- *)

let compile_cmd =
  let program_arg =
    let doc = "Program file in the (seq/par/task) language; see lib/lang/parse.mli." in
    Arg.(required & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output task-graph file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run program out =
    match Flb_lang.Parse.load ~path:program with
    | exception Flb_lang.Parse.Parse_error { position; message } ->
      Printf.eprintf "%s: at offset %d: %s\n" program position message;
      exit 2
    | p ->
      let g = Flb_lang.Program.compile p in
      if out = "-" then print_string (Serial.to_string g)
      else begin
        Serial.save g ~path:out;
        Printf.printf "wrote %s: %d tasks, %d edges\n" out (Taskgraph.num_tasks g)
          (Taskgraph.num_edges g)
      end
  in
  let doc = "Compile a structured program into a task graph." in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ program_arg $ out_arg)

(* --- profile --- *)

let profile_cmd =
  let run path =
    let g = load_graph path in
    print_string (Profile.render g);
    Printf.printf "average parallelism %.2f, peak %d\n"
      (Profile.average_parallelism g)
      (Profile.peak_parallelism g)
  in
  let doc =
    "Print the graph's idealized parallelism profile (running tasks over \
     time on unbounded processors)."
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ graph_arg)

(* --- validate-schedule --- *)

let validate_schedule_cmd =
  let schedule_arg =
    let doc = "Schedule file produced by 'schedule --save'." in
    Arg.(required & opt (some string) None & info [ "s"; "schedule" ] ~docv:"FILE" ~doc)
  in
  let run graph_path procs sched_path =
    let g = load_graph graph_path in
    let machine = Machine.clique ~num_procs:procs in
    match Schedule_io.load g machine ~path:sched_path with
    | exception Schedule_io.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" sched_path line message;
      exit 2
    | s ->
      Printf.printf "loaded: makespan %g\n" (Schedule.makespan s);
      (match Schedule.validate s with
      | Ok () -> print_endline "validation: ok"
      | Error es ->
        print_endline "validation FAILED:";
        List.iter (fun e -> Printf.printf "  %s\n" e) es;
        exit 1);
      match Flb_sim.Simulator.run s with
      | Ok o ->
        Printf.printf "simulation: makespan %g (%s)\n" o.Flb_sim.Simulator.makespan
          (if Flb_sim.Simulator.agrees_with_schedule s o then "exact replay"
           else "replay starts earlier somewhere: schedule has deliberate idling")
      | Error _ ->
        print_endline "simulation: replay FAILED";
        exit 1
  in
  let doc = "Load a saved schedule and check it against graph and machine." in
  Cmd.v
    (Cmd.info "validate-schedule" ~doc)
    Term.(const run $ graph_arg $ procs_arg $ schedule_arg)

(* --- dsh (duplication) --- *)

let dsh_cmd =
  let budget_arg =
    Arg.(value & opt int 8
         & info [ "budget" ] ~docv:"N" ~doc:"Duplications allowed per placement.")
  in
  let run path procs budget =
    let g = load_graph path in
    let machine = Machine.clique ~num_procs:procs in
    let s = Flb_duplication.Dsh.run ~max_dups_per_task:budget g machine in
    let v = Taskgraph.num_tasks g in
    let copies = Flb_duplication.Dup_schedule.copies_placed s in
    Printf.printf
      "DSH on %d processors: makespan %g, %d copies for %d tasks (%.1f%% duplication)\n"
      procs
      (Flb_duplication.Dup_schedule.makespan s)
      copies v
      (100.0 *. float_of_int (copies - v) /. float_of_int v);
    (match Flb_duplication.Dup_schedule.validate s with
    | Ok () -> print_endline "validation: ok"
    | Error es ->
      print_endline "validation FAILED:";
      List.iter (fun e -> Printf.printf "  %s\n" e) es;
      exit 1);
    Printf.printf "FLB without duplication: makespan %g\n"
      (Flb_core.Flb.schedule_length g machine)
  in
  let doc = "Schedule with the DSH duplication heuristic and compare to FLB." in
  Cmd.v (Cmd.info "dsh" ~doc) Term.(const run $ graph_arg $ procs_arg $ budget_arg)

(* --- trace --- *)

let trace_cmd =
  let run path procs =
    let g = load_graph path in
    let machine = Machine.clique ~num_procs:procs in
    let sched, rows = Flb_core.Flb_trace.collect g machine in
    print_string (Flb_core.Flb_trace.render ~num_procs:procs rows);
    Printf.printf "schedule length: %g\n" (Schedule.makespan sched)
  in
  let doc = "Print the FLB execution trace (the paper's Table 1 format)." in
  let graph_default =
    let doc = "Task graph file, or 'fig1' (default) for the paper's example." in
    Arg.(value & opt string "fig1" & info [ "g"; "graph" ] ~docv:"FILE" ~doc)
  in
  let procs_default =
    Arg.(value & opt int 2 & info [ "p"; "procs" ] ~docv:"P" ~doc:"Processors.")
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ graph_default $ procs_default)

(* --- execute --- *)

let execute_cmd =
  let graph_default_arg =
    let doc =
      "Task graph file (lib/taskgraph/serial.mli format), a .flb program file, \
       or 'fig1' (default) for the paper's example graph."
    in
    Arg.(value & opt string "fig1" & info [ "g"; "graph" ] ~docv:"FILE" ~doc)
  in
  let engine_arg =
    let doc =
      "Execution engine: $(b,static) (run the schedule produced by \
       --algorithm), $(b,steal) (decentralized work stealing, no schedule), \
       or $(b,affinity)[:ALGO] (work stealing seeded and routed by the \
       schedule's placements as locality hints; ALGO overrides --algorithm)."
    in
    Arg.(value & opt string "static" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)
  in
  let domains_arg =
    Arg.(value & opt int 2
         & info [ "d"; "domains" ] ~docv:"N" ~doc:"Worker domains to spawn.")
  in
  let unit_ns_arg =
    Arg.(value & opt float 1000.0
         & info [ "unit-ns" ] ~docv:"NS"
             ~doc:"Real nanoseconds of spin-work per weight unit; 0 makes \
                   tasks instantaneous (not allowed with --faults).")
  in
  let faults_arg =
    Arg.(value & opt string ""
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Comma-separated fault events, times in weight units: \
                   slow:D:FACTOR, stall:D:AT:DURATION, kill:D:AT. How a \
                   killed domain's work is recovered is chosen by \
                   $(b,--recover).")
  in
  let recover_arg =
    Arg.(value & opt string "steal"
         & info [ "recover" ] ~docv:"POLICY"
             ~doc:"Static-engine reaction to a killed domain: $(b,none) \
                   (strand its work), $(b,steal) (survivors drain its queue \
                   in place), or $(b,resched)[:ALGO] (snapshot the executed \
                   prefix and reschedule the unexecuted frontier on the \
                   survivors with ALGO, default FLB).")
  in
  let no_comm_arg =
    Arg.(value & flag
         & info [ "no-comm" ]
             ~doc:"Do not charge cross-domain edges their communication cost \
                   as a real arrival delay.")
  in
  let virtual_arg =
    Arg.(value & flag
         & info [ "virtual" ]
             ~doc:"Deterministic single-threaded virtual-clock mode instead \
                   of real domains (fault-free static mode reproduces the \
                   discrete-event simulator bit-for-bit; with --faults the \
                   run is still deterministic, with fault times read \
                   directly off the virtual clock).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write an execution trace with one track per domain (task \
                   spans, steal/recover/stall/killed instants). A .jsonl \
                   suffix writes the line-oriented schema $(b,flb analyze) \
                   reads (also produced in --virtual mode); anything else \
                   writes a Chrome/Perfetto trace.")
  in
  let flight_out_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Flight-recorder dump file. The recorder always runs \
                   (fixed-size per-domain rings of recent events) and dumps \
                   here on kill/stall faults and at run end. Defaults to \
                   flb-flight.jsonl when --faults is non-empty; readable by \
                   $(b,flb analyze).")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write rt_* runtime metrics as a Prometheus-style text dump \
                   (.json suffix switches to JSON).")
  in
  let run path engine_s algo domains unit_ns faults_s recover_s no_comm virt seed
      trace_out flight_out metrics_out =
    let g = load_graph path in
    let engine =
      match String.lowercase_ascii engine_s with
      | "static" -> `Static
      | "steal" -> `Steal
      | "affinity" -> `Affinity None
      | s when String.length s > 9 && String.sub s 0 9 = "affinity:" ->
        `Affinity (Some (String.sub engine_s 9 (String.length engine_s - 9)))
      | _ ->
        prerr_endline
          ("bad --engine: expected static, steal or affinity[:ALGO], got "
          ^ engine_s);
        exit 2
    in
    let faults =
      match R.Fault.parse faults_s with
      | Ok f -> f
      | Error e ->
        prerr_endline ("bad --faults: " ^ R.Fault.error_to_string e);
        exit 2
    in
    let recover =
      match String.lowercase_ascii recover_s with
      | "none" -> R.Engine.No_recovery
      | "steal" -> R.Engine.Steal_queues
      | "resched" -> R.Engine.Resched "FLB"
      | s when String.length s > 8 && String.sub s 0 8 = "resched:" ->
        let a = String.sub recover_s 8 (String.length recover_s - 8) in
        if Flb_reschedule.Reschedule.find a = None then begin
          prerr_endline
            (Printf.sprintf
               "bad --recover: unknown reschedule algorithm %s (available: %s)" a
               (String.concat ", " Flb_reschedule.Reschedule.names));
          exit 2
        end;
        R.Engine.Resched a
      | _ ->
        prerr_endline
          ("bad --recover: expected none, steal or resched[:ALGO], got "
          ^ recover_s);
        exit 2
    in
    let sched_for algo_name =
      match E.Registry.find algo_name with
      | None ->
        prerr_endline ("unknown algorithm: " ^ algo_name);
        exit 2
      | Some a ->
        let machine = Machine.clique ~num_procs:domains in
        let s = a.E.Registry.run g machine in
        Printf.printf "%s on %d domains: predicted makespan %g\n" a.E.Registry.name
          domains (Schedule.makespan s);
        s
    in
    let sched_for_static () = sched_for algo in
    (* The hint-providing schedule: --engine affinity:ALGO overrides
       --algorithm. *)
    let sched_for_affinity algo_o = sched_for (Option.value algo_o ~default:algo) in
    let engine_name =
      match engine with
      | `Static -> "static"
      | `Steal -> "steal"
      | `Affinity _ -> "affinity"
    in
    let write_virtual_trace ~start ~finish ~exec_domain ~num_domains =
      match trace_out with
      | None -> ()
      | Some out ->
        let text =
          R.Analyze.jsonl_of_times
            ~meta:
              [ ("engine", engine_name); ("clock", "virtual");
                ("domains", string_of_int num_domains) ]
            ~start ~finish ~exec_domain ()
        in
        Out_channel.with_open_text out (fun oc -> output_string oc text);
        Printf.printf "wrote %s\n" out
    in
    if virt then begin
      let (o : R.Virtual_clock.outcome) =
        match engine with
        | `Static -> R.Virtual_clock.run_static ~faults ~recover (sched_for_static ())
        | `Steal ->
          R.Virtual_clock.run_steal ~charge_comm:(not no_comm) ~faults ~domains g
        | `Affinity algo_o ->
          R.Virtual_clock.run_affinity ~charge_comm:(not no_comm) ~faults
            (sched_for_affinity algo_o)
      in
      if faults = R.Fault.none then
        Printf.printf "virtual clock: makespan %g, %d steals\n" o.makespan o.steals
      else
        Printf.printf
          "virtual clock (%s recovery): makespan %g, %d/%d tasks, %d killed, %d \
           rescheds, %d recovered, %d steals\n"
          (R.Engine.recovery_to_string recover)
          o.makespan o.completed o.total o.killed o.rescheds o.recovered o.steals;
      (match engine with
      | `Affinity _ ->
        Printf.printf "  hint hits %d, misses %d\n" o.hint_hits o.hint_misses
      | `Static | `Steal -> ());
      Array.iteri (fun d n -> Printf.printf "  D%d: %d tasks\n" d n) o.per_domain_tasks;
      write_virtual_trace ~start:o.start ~finish:o.finish ~exec_domain:o.exec_domain
        ~num_domains:(Array.length o.per_domain_tasks);
      if not (R.Virtual_clock.complete o) then begin
        prerr_endline "execution incomplete (work was lost to kills)";
        exit 1
      end
    end
    else begin
      let tracer =
        if trace_out <> None then Flb_obs.Trace.create () else Flb_obs.Trace.null
      in
      let registry =
        if metrics_out <> None then Some (Flb_obs.Metrics.create ()) else None
      in
      (* A faulty run is exactly when a post-mortem is wanted, so the
         flight recorder dumps somewhere even without --flight-out. *)
      let flight_path =
        match flight_out with
        | Some _ as p -> p
        | None -> if faults <> R.Fault.none then Some "flb-flight.jsonl" else None
      in
      let config =
        {
          R.Engine.domains;
          unit_ns;
          charge_comm = not no_comm;
          faults;
          recover;
          seed;
          tracer;
          metrics = registry;
          flight_capacity = Flb_obs.Flight_recorder.default_capacity;
          flight_path;
          trace_id = 0L;
        }
      in
      let o =
        match engine with
        | `Static -> R.Static.run ~config (sched_for_static ())
        | `Steal -> R.Steal.run ~config g
        | `Affinity algo_o -> R.Affinity.run ~config (sched_for_affinity algo_o)
      in
      Format.printf "%a@." R.Engine.pp_outcome o;
      Array.iteri
        (fun d n ->
          Printf.printf "  D%d: %d tasks, busy %.3f ms, idle %.3f ms\n" d n
            (o.R.Engine.per_domain_busy_ns.(d) /. 1e6)
            (o.R.Engine.per_domain_idle_ns.(d) /. 1e6))
        o.R.Engine.per_domain_tasks;
      (match trace_out with
      | None -> ()
      | Some out ->
        if Filename.check_suffix out ".jsonl" then
          Flb_obs.Trace.save_jsonl tracer ~path:out
        else
          Flb_obs.Trace.save_chrome tracer ~path:out
            ~name:(Printf.sprintf "%s on %s (%d domains)" engine_name path domains);
        Printf.printf "wrote %s\n" out);
      (match flight_path with
      | Some out when faults <> R.Fault.none -> Printf.printf "flight recorder dump: %s\n" out
      | _ -> ());
      (match (registry, metrics_out) with
      | Some reg, Some out ->
        let open Flb_obs.Metrics in
        if Filename.check_suffix out ".json" then save_json reg ~path:out
        else save_prometheus reg ~path:out;
        Printf.printf "wrote %s\n" out
      | _ -> ());
      if not (R.Engine.complete o) then begin
        prerr_endline "execution incomplete (every domain was killed)";
        exit 1
      end
    end
  in
  let doc = "Execute a task graph on real OCaml 5 domains." in
  Cmd.v (Cmd.info "execute" ~doc)
    Term.(
      const run $ graph_default_arg $ engine_arg $ algo_arg $ domains_arg
      $ unit_ns_arg $ faults_arg $ recover_arg $ no_comm_arg $ virtual_arg
      $ seed_arg $ trace_out_arg $ flight_out_arg $ metrics_out_arg)

(* --- serve / request / metrics (the flb_service daemon) --- *)

let port_arg =
  let doc = "TCP port of the scheduling daemon." in
  Arg.(value & opt int Flb_service.Server.default_config.port
       & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Host of the scheduling daemon." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let serve_cmd =
  let domains_arg =
    Arg.(value & opt int 2
         & info [ "domains" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue-capacity" ] ~docv:"N"
             ~doc:"Bound on queued jobs; beyond it requests are answered \
                   Overloaded.")
  in
  let cache_arg =
    Arg.(value & opt int 256
         & info [ "cache-capacity" ] ~docv:"N" ~doc:"LRU schedule-cache entries.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Queueing deadline: jobs waiting longer answer an error \
                   instead of running.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record request traces (one req-<id> track per request \
                   plus scheduler phase tracks) and write them on shutdown; \
                   .jsonl suffix for the $(b,flb analyze) schema, anything \
                   else for Chrome/Perfetto. Serializes traced scheduling — \
                   a debugging mode.")
  in
  let stream_batch_arg =
    Arg.(value & opt int Flb_stream.Scheduler_loop.default_config.batch_tasks
         & info [ "stream-batch-tasks" ] ~docv:"N"
             ~doc:"Streaming: run a scheduling round as soon as a group \
                   has this many pending tasks.")
  in
  let stream_tick_arg =
    Arg.(value & opt float Flb_stream.Scheduler_loop.default_config.tick_period_s
         & info [ "stream-tick" ] ~docv:"SECONDS"
             ~doc:"Streaming: periodic round timer for quiescent groups \
                   with pending work.")
  in
  let run host port domains queue_capacity cache_capacity deadline_s trace_out
      stream_batch_tasks stream_tick =
    let tracer =
      if trace_out <> None then Flb_obs.Trace.create () else Flb_obs.Trace.null
    in
    let config =
      {
        Flb_service.Server.default_config with
        host;
        port;
        domains;
        queue_capacity;
        cache_capacity;
        deadline_s;
        tracer;
        stream =
          {
            Flb_stream.Scheduler_loop.default_config with
            batch_tasks = stream_batch_tasks;
            tick_period_s = stream_tick;
          };
      }
    in
    let srv = Flb_service.Server.start config in
    Printf.printf "flb daemon listening on %s:%d (%d domains, queue %d, cache %d)\n%!"
      host
      (Flb_service.Server.port srv)
      domains queue_capacity cache_capacity;
    Flb_service.Server.wait srv;
    (match trace_out with
    | None -> ()
    | Some out ->
      if Filename.check_suffix out ".jsonl" then
        Flb_obs.Trace.save_jsonl tracer ~path:out
      else Flb_obs.Trace.save_chrome tracer ~path:out ~name:"flb daemon";
      Printf.printf "wrote %s\n" out);
    print_endline "flb daemon stopped"
  in
  let doc = "Run the scheduling daemon." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ host_arg $ port_arg $ domains_arg $ queue_arg $ cache_arg
          $ deadline_arg $ trace_out_arg $ stream_batch_arg $ stream_tick_arg)

let request_cmd =
  let graph_default_arg =
    let doc =
      "Task graph file (lib/taskgraph/serial.mli format), a .flb program \
       file, or 'fig1' (default) for the paper's example graph."
    in
    Arg.(value & opt string "fig1" & info [ "g"; "graph" ] ~docv:"FILE" ~doc)
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Write the returned schedule (reloadable by \
                   validate-schedule).")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit instead \
                                     of scheduling.")
  in
  let run host port path algo procs save shutdown =
    let client = Flb_service.Client.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Flb_service.Client.close client)
      (fun () ->
        if shutdown then begin
          match Flb_service.Client.shutdown client with
          | Ok () -> print_endline "daemon shutting down"
          | Error msg -> prerr_endline ("shutdown failed: " ^ msg); exit 1
        end
        else begin
          let graph = Serial.to_string (load_graph path) in
          match Flb_service.Client.schedule client ~graph ~algo ~procs with
          | Ok (Flb_service.Wire.Scheduled r) ->
            Printf.printf
              "%s on %d processors: makespan %g, speedup %.2f, NSL vs MCP %.3f \
               (cache %s)\n"
              algo procs r.makespan r.speedup r.nsl
              (if r.cache_hit then "hit" else "miss");
            let { Flb_service.Wire.queue_wait_s; cache_s; sched_s; exec_s } =
              r.breakdown
            in
            if exec_s > 0.0 || cache_s > 0.0 then
              Printf.printf
                "  server: queue-wait %.3f ms, cache %.3f ms, schedule %.3f \
                 ms, execute %.3f ms\n"
                (queue_wait_s *. 1e3) (cache_s *. 1e3) (sched_s *. 1e3)
                (exec_s *. 1e3);
            Printf.printf "  trace id: %s\n"
              (Flb_obs.Trace_context.id_to_string
                 (Flb_service.Client.last_trace_id client));
            (match save with
            | None -> ()
            | Some out ->
              Out_channel.with_open_text out (fun oc ->
                  output_string oc r.schedule);
              Printf.printf "wrote %s\n" out)
          | Ok Flb_service.Wire.Overloaded ->
            prerr_endline "daemon overloaded: request shed, retry later";
            exit 3
          | Ok (Flb_service.Wire.Error { code; message }) ->
            Printf.eprintf "error (%s): %s\n"
              (Flb_service.Wire.error_code_to_string code)
              message;
            exit 1
          | Ok _ -> prerr_endline "unexpected response"; exit 1
          | Error msg -> prerr_endline ("transport error: " ^ msg); exit 1
        end)
  in
  let doc = "Send one schedule request to a running daemon." in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(const run $ host_arg $ port_arg $ graph_default_arg $ algo_arg
          $ procs_arg $ save_arg $ shutdown_arg)

let stream_cmd =
  let graph_default_arg =
    let doc =
      "Task graph file (lib/taskgraph/serial.mli format), a .flb program \
       file, or 'fig1' (default) for the paper's example graph."
    in
    Arg.(value & opt string "fig1" & info [ "g"; "graph" ] ~docv:"FILE" ~doc)
  in
  let batches_arg =
    Arg.(value & opt int 2
         & info [ "batches" ] ~docv:"N"
             ~doc:"Ship the graph in this many topologically ordered \
                   task/edge batches, polling for placements after each.")
  in
  let placements_arg =
    Arg.(value & flag
         & info [ "placements" ]
             ~doc:"Print every placement as it is announced (stream task \
                   id, processor, start time).")
  in
  let run host port path algo procs batches placements_flag =
    let g = load_graph path in
    let total = Taskgraph.num_tasks g in
    let chunks = Flb_stream.Chunk.plan ~chunks:batches g in
    let client = Flb_service.Client.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Flb_service.Client.close client)
      (fun () ->
        let placed = ref 0 in
        let note what (p : Flb_service.Client.placed) =
          placed := !placed + Array.length p.placements;
          if Array.length p.placements > 0 then begin
            Printf.printf "%s: round %d placed %d tasks (%d/%d total)\n" what
              p.round
              (Array.length p.placements)
              !placed total;
            if placements_flag then
              Array.iter
                (fun (task, proc, start) ->
                  Printf.printf "  task %d -> P%d @ %g\n" task proc start)
                p.placements
          end
        in
        let fail msg = prerr_endline ("stream failed: " ^ msg); exit 1 in
        let stream =
          match Flb_service.Client.open_stream client ~algo ~procs with
          | Ok id -> id
          | Error msg -> fail msg
        in
        Printf.printf "stream %d opened: %s on %d processors, %d tasks in %d batches\n"
          stream algo procs total (List.length chunks);
        List.iteri
          (fun i { Flb_stream.Chunk.comps; edges } ->
            Printf.printf "batch %d: %d tasks, %d edges\n" (i + 1)
              (Array.length comps) (Array.length edges);
            (match Flb_service.Client.add_tasks client ~stream ~comps with
            | Ok p -> note "  add-tasks" p
            | Error msg -> fail msg);
            (if Array.length edges > 0 then
               match Flb_service.Client.add_edges client ~stream ~edges with
               | Ok p -> note "  add-edges" p
               | Error msg -> fail msg);
            match Flb_service.Client.poll_stream client ~stream with
            | Ok p -> note "  poll" p
            | Error msg -> fail msg)
          chunks;
        match Flb_service.Client.seal_stream client ~stream with
        | Error msg -> fail msg
        | Ok final ->
          note "seal" final;
          if not final.final || !placed <> total then begin
            Printf.eprintf "stream incomplete: %d of %d tasks placed\n" !placed
              total;
            exit 1
          end;
          Printf.printf "final makespan %g after %d rounds\n" final.makespan
            final.round)
  in
  let doc =
    "Stream a task graph to a running daemon incrementally: open a \
     session, ship tasks and edges in batches, and collect placements \
     as rolling scheduling rounds announce them."
  in
  Cmd.v (Cmd.info "stream" ~doc)
    Term.(const run $ host_arg $ port_arg $ graph_default_arg $ algo_arg
          $ procs_arg $ batches_arg $ placements_arg)

let metrics_cmd =
  let run host port =
    let client = Flb_service.Client.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Flb_service.Client.close client)
      (fun () ->
        match Flb_service.Client.get_metrics client with
        | Ok text -> print_string text
        | Error msg -> prerr_endline ("metrics failed: " ^ msg); exit 1)
  in
  let doc = "Fetch a running daemon's Prometheus metrics exposition." in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run $ host_arg $ port_arg)

let stats_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"One JSON object (cache, pool, per-connection table, \
                   metrics) instead of the Prometheus exposition.")
  in
  let run host port json =
    let client = Flb_service.Client.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Flb_service.Client.close client)
      (fun () ->
        let format =
          if json then Flb_service.Wire.Stats_json
          else Flb_service.Wire.Stats_prometheus
        in
        match Flb_service.Client.get_stats client ~format with
        | Ok text ->
          print_string text;
          if text <> "" && text.[String.length text - 1] <> '\n' then
            print_newline ()
        | Error msg ->
          prerr_endline ("stats failed: " ^ msg);
          exit 1)
  in
  let doc =
    "Live introspection snapshot of a running daemon: uptime, cache hit \
     rate, pool depth, per-connection state — no restart required."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ host_arg $ port_arg $ json_arg)

(* --- route (the flb_router sharding tier) --- *)

let route_cmd =
  let backends_arg =
    let doc =
      "Comma-separated backend daemons, each host:port (or just a port, \
       meaning 127.0.0.1)."
    in
    Arg.(required & opt (some string) None
         & info [ "backends" ] ~docv:"HOST:PORT,..." ~doc)
  in
  let route_port_arg =
    let doc = "TCP port the router listens on." in
    Arg.(value & opt int Flb_router.Router.default_config.port
         & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let replication_arg =
    Arg.(value & opt int 2
         & info [ "replication" ] ~docv:"R"
             ~doc:"Replicas per shard: how many ring members may serve one \
                   graph digest.")
  in
  let split_arg =
    Arg.(value & opt int 2
         & info [ "split-factor" ] ~docv:"S"
             ~doc:"Replica-set multiplier for saturated shards.")
  in
  let vnodes_arg =
    Arg.(value & opt int 64
         & info [ "vnodes" ] ~docv:"N" ~doc:"Ring points per backend.")
  in
  let policy_arg =
    Arg.(value
         & opt (enum [ ("hash", Flb_router.Router.Hash);
                       ("round-robin", Flb_router.Router.Round_robin) ])
             Flb_router.Router.Hash
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"$(b,hash) shards by graph digest on the consistent-hash \
                   ring; $(b,round-robin) ignores the ring (baseline).")
  in
  let connect_timeout_arg =
    Arg.(value & opt float 1.0
         & info [ "connect-timeout" ] ~docv:"SECONDS"
             ~doc:"Backend connect deadline before failing over.")
  in
  let call_timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "call-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request backend I/O deadline before failing over.")
  in
  let health_arg =
    Arg.(value & opt float 2.0
         & info [ "health-period" ] ~docv:"SECONDS"
             ~doc:"Ping/load-probe cadence against every backend.")
  in
  let peers_arg =
    Arg.(value & opt string ""
         & info [ "peers" ] ~docv:"HOST:PORT,..."
             ~doc:"Comma-separated fellow router replicas to gossip backend \
                   health and split decisions with.")
  in
  let gossip_arg =
    Arg.(value & opt float 1.0
         & info [ "gossip-period" ] ~docv:"SECONDS"
             ~doc:"Peer digest-exchange cadence; 0 disables gossip.")
  in
  let fail_threshold_arg =
    Arg.(value & opt int 2
         & info [ "fail-threshold" ] ~docv:"K"
             ~doc:"Consecutive probe/call failures before a backend is marked \
                   down (anti-flap hysteresis).")
  in
  let hedge_after_arg =
    Arg.(value & opt float 0.0
         & info [ "hedge-after-ms" ] ~docv:"MS"
             ~doc:"Hot-shard hedging: also send the request to a second \
                   replica once it has been outstanding this long and take \
                   the first answer; 0 disables.")
  in
  let hedge_adaptive_arg =
    Arg.(value & flag
         & info [ "hedge-adaptive" ]
             ~doc:"Derive the hedge delay from the live p99 request latency \
                   instead of a fixed --hedge-after-ms.")
  in
  let warm_keys_arg =
    Arg.(value & opt int 4
         & info [ "warm-keys" ] ~docv:"N"
             ~doc:"Hottest shards replayed to a recovering or newly split \
                   replica so it never serves cold; 0 disables cache warming.")
  in
  let parse_addr_list what s =
    List.map
      (fun s ->
        match Flb_router.Backend.parse_addr (String.trim s) with
        | Ok hp -> hp
        | Error msg -> prerr_endline (what ^ ": " ^ msg); exit 2)
      (List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' s))
  in
  let run host port backends_s peers_s replication split_factor vnodes policy
      connect_timeout_s call_timeout_s health_period_s gossip_period_s
      fail_threshold hedge_after_ms hedge_adaptive warm_keys =
    let backends = parse_addr_list "--backends" backends_s in
    if backends = [] then begin
      prerr_endline "--backends must name at least one daemon";
      exit 2
    end;
    let peers = parse_addr_list "--peers" peers_s in
    let hedge =
      if hedge_adaptive then Flb_router.Router.Hedge_adaptive
      else if hedge_after_ms > 0.0 then
        Flb_router.Router.Hedge_fixed_ms hedge_after_ms
      else Flb_router.Router.Hedge_off
    in
    let config =
      {
        Flb_router.Router.default_config with
        host;
        port;
        backends;
        peers;
        replication;
        split_factor;
        vnodes;
        policy;
        connect_timeout_s;
        call_timeout_s;
        health_period_s;
        gossip_period_s;
        fail_threshold;
        hedge;
        warm_keys;
      }
    in
    let router = Flb_router.Router.start config in
    Printf.printf
      "flb router listening on %s:%d — %d backends, replication %d, split \
       factor %d, %s policy, %d peers, hedging %s\n%!"
      host
      (Flb_router.Router.port router)
      (List.length backends) replication split_factor
      (match policy with
      | Flb_router.Router.Hash -> "hash"
      | Flb_router.Router.Round_robin -> "round-robin")
      (List.length peers)
      (match hedge with
      | Flb_router.Router.Hedge_off -> "off"
      | Flb_router.Router.Hedge_fixed_ms ms -> Printf.sprintf "after %g ms" ms
      | Flb_router.Router.Hedge_adaptive -> "adaptive (p99)");
    Flb_router.Router.wait router;
    print_endline "flb router stopped"
  in
  let doc =
    "Run the sharding router: consistent-hash request routing across \
     several daemons, with replication, shard splitting, failover, \
     gossiped health between router replicas and hot-shard hedging."
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(const run $ host_arg $ route_port_arg $ backends_arg $ peers_arg
          $ replication_arg $ split_arg $ vnodes_arg $ policy_arg
          $ connect_timeout_arg $ call_timeout_arg $ health_arg $ gossip_arg
          $ fail_threshold_arg $ hedge_after_arg $ hedge_adaptive_arg
          $ warm_keys_arg)

(* --- drain (graceful backend removal) --- *)

let drain_cmd =
  let backend_arg =
    let doc =
      "Backend daemon to drain, host:port (or just a port, meaning \
       127.0.0.1)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc)
  in
  let router_port_arg =
    let doc = "TCP port of the router to send the drain through." in
    Arg.(value & opt int Flb_router.Router.default_config.port
         & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"How long to wait for the drained daemon to finish its \
                   in-flight work and exit; 0 returns right after the \
                   acknowledgement.")
  in
  let direct_arg =
    Arg.(value & flag
         & info [ "direct" ]
             ~doc:"Send the drain straight to the backend daemon instead of \
                   through a router (no router or peer learns about it).")
  in
  let run host port backend_s timeout direct =
    let bhost, bport =
      match Flb_router.Backend.parse_addr (String.trim backend_s) with
      | Ok hp -> hp
      | Error msg -> prerr_endline msg; exit 2
    in
    let backend_id = Printf.sprintf "%s:%d" bhost bport in
    (if direct then
       let c = Flb_service.Client.connect ~host:bhost ~port:bport () in
       Fun.protect
         ~finally:(fun () -> Flb_service.Client.close c)
         (fun () ->
           match Flb_service.Client.drain c with
           | Ok () -> Printf.printf "%s draining\n%!" backend_id
           | Error msg -> prerr_endline ("drain failed: " ^ msg); exit 1)
     else
       let c = Flb_service.Client.connect ~host ~port () in
       Fun.protect
         ~finally:(fun () -> Flb_service.Client.close c)
         (fun () ->
           match Flb_service.Client.drain ~backend:backend_id c with
           | Ok () ->
             Printf.printf
               "%s draining — router %s:%d stops routing new shards to it \
                and gossips the drain to its peers\n%!"
               backend_id host port
           | Error msg -> prerr_endline ("drain failed: " ^ msg); exit 1));
    if timeout > 0.0 then begin
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait () =
        match
          Flb_service.Client.connect ~host:bhost ~port:bport
            ~connect_timeout_s:0.5 ()
        with
        | exception _ -> Printf.printf "%s drained and gone\n" backend_id
        | probe ->
          Flb_service.Client.close probe;
          if Unix.gettimeofday () > deadline then begin
            Printf.eprintf "%s still accepting after %g s\n" backend_id timeout;
            exit 1
          end
          else begin
            Unix.sleepf 0.2;
            wait ()
          end
      in
      wait ()
    end
  in
  let doc =
    "Gracefully remove a backend from a routed fleet: it finishes \
     in-flight and streaming work, takes no new shards, and exits — \
     zero dropped requests."
  in
  Cmd.v (Cmd.info "drain" ~doc)
    Term.(const run $ host_arg $ router_port_arg $ backend_arg $ timeout_arg
          $ direct_arg)

(* --- analyze --- *)

let analyze_cmd =
  let trace_arg =
    let doc =
      "Trace to analyze: JSONL from $(b,flb execute --trace-out x.jsonl) \
       (real or --virtual), or a flight-recorder dump."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let graph_default_arg =
    let doc =
      "Task graph the trace executed (needed for dependencies), or 'fig1' \
       (default) for the paper's example graph."
    in
    Arg.(value & opt string "fig1" & info [ "g"; "graph" ] ~docv:"FILE" ~doc)
  in
  let algo_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "a"; "algorithm" ] ~docv:"NAME"
             ~doc:"Recompute this algorithm's schedule as the prediction to \
                   rank stragglers against (same algorithm the run was \
                   scheduled with). Without it the report has no \
                   predicted-vs-realized comparison.")
  in
  let procs_opt_arg =
    Arg.(value & opt int 0
         & info [ "p"; "procs" ] ~docv:"P"
             ~doc:"Processors for the predicted schedule; 0 (default) infers \
                   the trace's domain count.")
  in
  let unit_ns_arg =
    Arg.(value & opt float 0.0
         & info [ "unit-ns" ] ~docv:"NS"
             ~doc:"The run's nanoseconds per weight unit: scales predicted \
                   times into the trace's seconds. 0 (default) for \
                   virtual-clock traces, whose timestamps already are weight \
                   units.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run trace_path graph_path algo procs unit_ns json =
    let g = load_graph graph_path in
    let report =
      match R.Analyze.load trace_path with
      | Error msg ->
        prerr_endline ("cannot read trace: " ^ msg);
        exit 1
      | Ok parsed -> (
        let schedule =
          match algo with
          | None -> None
          | Some name -> (
            match E.Registry.find name with
            | None ->
              prerr_endline ("unknown algorithm: " ^ name);
              exit 2
            | Some a ->
              let procs =
                if procs > 0 then procs
                else
                  (* The trace knows the team size. *)
                  let m = ref 0 in
                  List.iter
                    (fun e ->
                      if e.R.Analyze.domain > !m then m := e.R.Analyze.domain)
                    parsed.R.Analyze.execs;
                  List.iter
                    (fun mk ->
                      if mk.R.Analyze.mark_domain > !m then
                        m := mk.R.Analyze.mark_domain)
                    parsed.R.Analyze.marks;
                  !m + 1
              in
              Some (a.E.Registry.run g (Machine.clique ~num_procs:procs)))
        in
        let scale = if unit_ns > 0.0 then unit_ns /. 1e9 else 1.0 in
        match R.Analyze.analyze ?schedule ~scale ~graph:g parsed with
        | Error msg ->
          prerr_endline ("analysis failed: " ^ msg);
          exit 1
        | Ok report -> report)
    in
    if json then print_endline (R.Analyze.to_json report)
    else print_string (R.Analyze.render report)
  in
  let doc =
    "Makespan attribution for an executed trace: the realized critical \
     path, per-task slack, per-domain busy/idle/steal breakdown, and \
     stragglers against the schedule's predicted finish times."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ trace_arg $ graph_default_arg $ algo_opt_arg
          $ procs_opt_arg $ unit_ns_arg $ json_arg)

(* --- experiment --- *)

let experiment_cmd =
  let which_arg =
    let doc = "Which experiment: fig2, fig3, fig4, complexity, duplication, granularity, runtime, resched." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let tasks_arg =
    Arg.(value & opt int 2000 & info [ "n"; "tasks" ] ~docv:"V" ~doc:"Graph size.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let run which tasks csv =
    match String.lowercase_ascii which with
    | "fig2" ->
      let cells =
        E.Runtime_exp.run ~suite:(E.Workload_suite.fig4_suite ~tasks ()) ()
      in
      print_string (if csv then E.Runtime_exp.to_csv cells else E.Runtime_exp.render cells)
    | "fig3" ->
      let cells =
        E.Speedup_exp.run ~suite:(E.Workload_suite.fig3_suite ~tasks ()) ()
      in
      print_string (if csv then E.Speedup_exp.to_csv cells else E.Speedup_exp.render cells)
    | "fig4" ->
      let cells = E.Nsl_exp.run ~suite:(E.Workload_suite.fig4_suite ~tasks ()) () in
      print_string (if csv then E.Nsl_exp.to_csv cells else E.Nsl_exp.render cells)
    | "complexity" ->
      let cells = E.Complexity_exp.run () in
      print_string
        (if csv then E.Complexity_exp.to_csv cells else E.Complexity_exp.render cells)
    | "duplication" ->
      print_string (E.Duplication_exp.render (E.Duplication_exp.run ()))
    | "granularity" ->
      print_string (E.Granularity_exp.render (E.Granularity_exp.run ()))
    | "runtime" ->
      let rows = E.Runtime_real_exp.run () in
      print_string
        (if csv then E.Runtime_real_exp.to_csv rows else E.Runtime_real_exp.render rows)
    | "resched" ->
      let rows = E.Resched_exp.run () in
      print_string
        (if csv then E.Resched_exp.to_csv rows else E.Resched_exp.render rows)
    | other ->
      prerr_endline ("unknown experiment: " ^ other);
      exit 2
  in
  let doc = "Regenerate a figure of the paper." in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ which_arg $ tasks_arg $ csv_arg)

let () =
  let doc = "FLB task scheduling for distributed-memory machines" in
  let info = Cmd.info "flb" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ gen_cmd; compile_cmd; info_cmd; profile_cmd; schedule_cmd;
        validate_schedule_cmd; compare_cmd; dsh_cmd; trace_cmd; execute_cmd;
        analyze_cmd; experiment_cmd; serve_cmd; request_cmd; stream_cmd;
        metrics_cmd; stats_cmd; route_cmd; drain_cmd ]
  in
  (* A file flb cannot open, read or write is a usage error, like an
     unreadable graph: "flb: MESSAGE", exit 2. Any other exception is
     raised again under Cmdliner's own handler, which reports it as an
     internal error (exit 125). *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Sys_error message ->
      prerr_endline ("flb: " ^ message);
      2
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Cmd.eval ~argv:[| "flb" |]
        (Cmd.v info Term.(const (fun () -> Printexc.raise_with_backtrace e bt) $ const ())))
