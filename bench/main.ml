(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section 6):

   - Table 1: the FLB execution trace of the Fig. 1 example graph;
   - Fig. 2:  scheduling algorithm costs (Bechamel micro-benchmarks plus a
              repeat-and-take-best summary sweep);
   - Fig. 3:  FLB speedup on LU / Laplace / Stencil / FFT;
   - Fig. 4:  normalized schedule lengths against MCP;
   - plus the ablation studies DESIGN.md calls out (tie-break rules, LLB
     priority, MCP insertion).

   Flags select sections (--table1 --fig2 --fig3 --fig4 --ablation
   --complexity --duplication --granularity --multistep --mesh
   --contention --random --runtime --resched); no flag runs everything.
   --quick shrinks graphs and sample counts for a fast smoke run; --csv
   DIR additionally writes plot-ready CSV files for Figures 3 and 4 and
   the two runtime tables.

   The allocation gate runs alone: --regress writes the bytes/task
   baseline (--regress-out FILE, default BENCH_schedulers.json) and
   --regress-check FILE compares a quick run against it. Latency,
   throughput and real makespans are perfbench's to measure
   (perfbench/README.md). *)

open Bechamel
open Toolkit
module E = Flb_experiments

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* --- Table 1 --- *)

let run_table1 () =
  section "Table 1: FLB execution trace on the Fig. 1 graph (P = 2)";
  print_string (Flb_core.Flb_trace.render_fig1 ());
  Printf.printf "schedule length: %g (paper: 14)\n%!"
    (Flb_core.Flb.schedule_length (Flb_taskgraph.Example.fig1 ())
       (Flb_platform.Machine.clique ~num_procs:2))

(* --- Fig. 2 (Bechamel part): rigorous per-algorithm timing --- *)

let bechamel_fig2 ~tasks ~procs_list ~quota_s =
  section
    (Printf.sprintf
       "Figure 2a: scheduling cost, Bechamel OLS estimate (V = %d Stencil graph)"
       tasks);
  let workload = E.Workload_suite.stencil ~tasks () in
  let graph = E.Workload_suite.instance workload ~ccr:1.0 ~seed:1 in
  let tests =
    List.concat_map
      (fun p ->
        let machine = Flb_platform.Machine.clique ~num_procs:p in
        List.map
          (fun (algo : E.Registry.t) ->
            Test.make
              ~name:(Printf.sprintf "%s/P=%d" algo.E.Registry.name p)
              (Staged.stage (fun () -> ignore (algo.E.Registry.run graph machine))))
          E.Registry.paper_set)
      procs_list
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None
      ~stabilize:false ()
  in
  let raw =
    List.fold_left
      (fun acc test ->
        let results = Benchmark.all cfg [ Instance.monotonic_clock ] (
          Test.make_grouped ~name:"fig2" [ test ]) in
        Hashtbl.iter (Hashtbl.replace acc) results;
        acc)
      (Hashtbl.create 32) tests
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = E.Table.create ~header:[ "benchmark"; "time per run [ms]" ] in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, ols) ->
      let ms =
        match Analyze.OLS.estimates ols with
        | Some (ns :: _) -> Printf.sprintf "%.3f" (ns /. 1e6)
        | _ -> "n/a"
      in
      E.Table.add_row table [ name; ms ])
    rows;
  print_string (E.Table.render table);
  print_newline ();
  (* Probe counter snapshots for the same runs: the operation counts the
     paper's complexity bounds are actually about, next to the times. *)
  let counters =
    E.Table.create
      ~header:
        [ "benchmark"; "task ops/task"; "proc ops/task"; "peak ready"; "demotions" ]
  in
  List.iter
    (fun p ->
      let machine = Flb_platform.Machine.clique ~num_procs:p in
      List.iter
        (fun (algo : E.Registry.t) ->
          let _, r = E.Registry.run_with_report ~timed:false algo graph machine in
          let v = float_of_int (max 1 r.Flb_obs.Probe.iterations) in
          let cell n = Printf.sprintf "%.2f" (float_of_int n /. v) in
          if r.Flb_obs.Probe.iterations > 0 then
            E.Table.add_row counters
              [
                Printf.sprintf "%s/P=%d" algo.E.Registry.name p;
                cell r.Flb_obs.Probe.task_queue_ops;
                cell r.Flb_obs.Probe.proc_queue_ops;
                string_of_int r.Flb_obs.Probe.peak_ready;
                string_of_int r.Flb_obs.Probe.demotions;
              ])
        E.Registry.paper_set)
    procs_list;
  print_string (E.Table.render counters);
  print_newline ()

(* --- Fig. 2 (sweep part): the paper's cost-vs-P curves --- *)

let run_fig2_sweep ~tasks ~repeats ~instances =
  section
    (Printf.sprintf
       "Figure 2b: scheduling cost sweep (best of %d repeats, V = %d graphs)"
       repeats tasks);
  let cells =
    E.Runtime_exp.run
      ~suite:(E.Workload_suite.fig4_suite ~tasks ())
      ~repeats ~instances_per_cell:instances ()
  in
  print_string (E.Runtime_exp.render cells);
  print_newline ();
  print_string
    "Expected shape (paper): ETF largest and growing steeply with P; MCP\n\
     growing moderately; DSC-LLB roughly flat; FCP and FLB smallest, flat.\n"

(* --- Fig. 3 --- *)

let run_fig3 ~tasks ~instances =
  section (Printf.sprintf "Figure 3: FLB speedup (V = %d graphs)" tasks);
  let cells =
    E.Speedup_exp.run
      ~suite:(E.Workload_suite.fig3_suite ~tasks ())
      ~instances_per_cell:instances ()
  in
  print_string (E.Speedup_exp.render cells);
  print_string
    "Expected shape (paper): Stencil and FFT near-linear; LU and Laplace\n\
     flatten at large P; CCR 5.0 speedups below CCR 0.2.\n"

(* --- Fig. 4 --- *)

let run_fig4 ~tasks ~instances =
  section (Printf.sprintf "Figure 4: normalized schedule lengths (V = %d graphs)" tasks);
  let cells =
    E.Nsl_exp.run
      ~domains:(Flb_prelude.Parallel.recommended_domains ())
      ~suite:(E.Workload_suite.fig4_suite ~tasks ())
      ~instances_per_cell:instances ()
  in
  print_string (E.Nsl_exp.render cells);
  print_string
    "Expected shape (paper): FLB comparable to ETF and MCP (within a few\n\
     percent, better on fine-grain Stencil/Laplace, worse on LU);\n\
     DSC-LLB consistently above all one-step algorithms.\n"

(* --- Ablations --- *)

let run_ablation ~tasks ~instances =
  section (Printf.sprintf "Ablation: design choices (V = %d graphs)" tasks);
  let algorithms =
    [
      E.Registry.mcp;
      {
        E.Registry.name = "MCP-ins";
        describe = "MCP with insertion-based placement";
        run = (fun g m -> Flb_schedulers.Mcp.run ~insertion:true g m);
        probed = (fun probe g m -> Flb_schedulers.Mcp.run ~insertion:true ~probe g m);
      };
      E.Registry.flb;
      {
        E.Registry.name = "FLB-id";
        describe = "FLB breaking ties by task id instead of bottom level";
        run =
          (fun g m ->
            Flb_core.Flb.run
              ~options:
                { Flb_core.Flb.tie_break = Flb_core.Flb.Task_id;
                  prefer_non_ep_on_tie = true }
              g m);
        probed =
          (fun probe g m ->
            Flb_core.Flb.run
              ~options:
                { Flb_core.Flb.tie_break = Flb_core.Flb.Task_id;
                  prefer_non_ep_on_tie = true }
              ~probe g m);
      };
      {
        E.Registry.name = "FLB-ep";
        describe = "FLB preferring the EP pair on start-time ties";
        run =
          (fun g m ->
            Flb_core.Flb.run
              ~options:
                { Flb_core.Flb.tie_break = Flb_core.Flb.Bottom_level;
                  prefer_non_ep_on_tie = false }
              g m);
        probed =
          (fun probe g m ->
            Flb_core.Flb.run
              ~options:
                { Flb_core.Flb.tie_break = Flb_core.Flb.Bottom_level;
                  prefer_non_ep_on_tie = false }
              ~probe g m);
      };
      E.Registry.dsc_llb;
      {
        E.Registry.name = "DSC-LLB-l";
        describe = "DSC-LLB with the paper's literal least-bottom-level LLB priority";
        run =
          (fun g m ->
            Flb_schedulers.Dsc_llb.run ~priority:Flb_schedulers.Llb.Least_blevel g m);
        probed =
          (fun _ g m ->
            Flb_schedulers.Dsc_llb.run ~priority:Flb_schedulers.Llb.Least_blevel g m);
      };
    ]
  in
  let cells =
    E.Nsl_exp.run
      ~domains:(Flb_prelude.Parallel.recommended_domains ())
      ~algorithms
      ~suite:(E.Workload_suite.fig4_suite ~tasks ())
      ~procs:[ 4; 16 ] ~instances_per_cell:instances ()
  in
  print_string (E.Nsl_exp.render cells)

(* --- Complexity scaling (extension experiment E7) --- *)

let run_complexity ~quick =
  section "Complexity scaling: time per task and FLB queue ops vs V and P";
  let cells =
    E.Complexity_exp.run
      ~sizes:(if quick then [ 250; 1000 ] else [ 250; 500; 1000; 2000; 4000 ])
      ~repeats:(if quick then 1 else 3) ()
  in
  print_string (E.Complexity_exp.render cells);
  print_string
    "Expected: FLB/FCP ns-per-task roughly flat in V and P (the paper's\n\
     O(V(logW + logP) + E) and O(VlogP + E) bounds); ETF ns-per-task\n\
     growing with both (O(W(E+V)P)). FLB queue ops per task stay below a\n\
     small constant (each task enters and leaves at most two queues).\n"

(* --- Duplication study (extension experiment E8) --- *)

let run_duplication ~quick =
  section "Duplication: DSH vs the non-duplicating schedulers";
  let cells =
    E.Duplication_exp.run ~tasks:(if quick then 200 else 500) ()
  in
  print_string (E.Duplication_exp.render cells);
  print_string
    "Expected: on fork-heavy graphs at high CCR, DSH's duplication beats\n\
     every non-duplicating scheduler on makespan while placing extra\n\
     copies and paying a far larger scheduling time — the trade-off the\n\
     paper's introduction uses to motivate non-duplicating heuristics.\n"

(* --- Granularity study (extension experiment E9) --- *)

let run_granularity () =
  section "Grain packing: chain merging ahead of FLB";
  print_string (E.Granularity_exp.render (E.Granularity_exp.run ()));
  print_string
    "Expected: merging chains removes internal messages, so at high CCR\n\
     the coarse graph schedules both better and faster; at low CCR the\n\
     effect is mostly on scheduling time (fewer tasks to place).\n"

(* --- Multi-step methods: DSC vs Sarkar clustering (extension E12) --- *)

let run_multistep ~quick =
  section "Multi-step methods: clustering choice (DSC vs Sarkar) under LLB";
  let algorithms =
    [
      E.Registry.mcp;
      E.Registry.flb;
      E.Registry.dsc_llb;
      {
        E.Registry.name = "SARKAR-LLB";
        describe = "Sarkar internalization + LLB";
        run = (fun g m -> Flb_schedulers.Llb.run g m (Flb_schedulers.Sarkar.cluster g));
        probed =
          (fun _ g m -> Flb_schedulers.Llb.run g m (Flb_schedulers.Sarkar.cluster g));
      };
    ]
  in
  let cells =
    E.Nsl_exp.run
      ~domains:(Flb_prelude.Parallel.recommended_domains ())
      ~algorithms
      ~suite:(E.Workload_suite.fig4_suite ~tasks:(if quick then 300 else 1000) ())
      ~procs:[ 4; 16 ]
      ~instances_per_cell:(if quick then 2 else 3)
      ()
  in
  print_string (E.Nsl_exp.render cells);
  print_string
    "Expected: both multi-step methods trail the one-step algorithms;\n\
     Sarkar's O(E(V+E)) clustering is far slower to compute than DSC\n\
     for comparable mapped quality — why DSC is the step the paper\n\
     benchmarks.\n"

(* --- Non-uniform machines (extension experiment E13) --- *)

let run_mesh ~quick =
  section "Mesh topology: FLB where Theorem 3 does not hold";
  let suite = E.Workload_suite.fig4_suite ~tasks:(if quick then 300 else 2000) () in
  print_string (E.Mesh_exp.render (E.Mesh_exp.run ~suite ()));
  print_string
    "Expected: on the clique FLB takes zero suboptimal steps (Theorem 3).\n\
     On the 4x4 mesh roughly half its selections are beaten by the\n\
     exhaustive scan; at coarse grain the makespan stays within a few\n\
     percent of ETF anyway, while at fine grain the lemma's failure\n\
     costs up to ~2.4x — off the uniform machine model the cheap\n\
     two-candidate rule genuinely needs topology awareness.\n"

(* --- Contention sensitivity (extension experiment E11) --- *)

let run_contention ~quick =
  section "Contention: replaying schedules with bounded send ports";
  let suite = E.Workload_suite.fig4_suite ~tasks:(if quick then 400 else 2000) () in
  print_string (E.Contention_exp.render (E.Contention_exp.run ~suite ()));
  print_string
    "Expected: the contention-free replay matches the analytic makespan\n\
     exactly; port-limited replays degrade more at high CCR and high P,\n\
     quantifying the paper's contention-free modelling assumption.\n"

(* --- Random structures (the TR's larger problem set) --- *)

let run_random_suite ~quick =
  section "Random/irregular structures: NSL vs MCP beyond the paper's kernels";
  let cells =
    E.Nsl_exp.run
      ~domains:(Flb_prelude.Parallel.recommended_domains ())
      ~suite:(E.Workload_suite.random_suite ~tasks:(if quick then 400 else 2000) ())
      ~procs:[ 4; 16 ]
      ~instances_per_cell:(if quick then 2 else 3)
      ()
  in
  print_string (E.Nsl_exp.render cells)

(* --- Runtime: real execution, FLB-static vs work stealing --- *)

let run_runtime ~quick =
  section "Runtime: real makespan on OCaml domains, FLB static vs work stealing";
  let rows =
    E.Runtime_real_exp.run
      ~suite:(E.Workload_suite.fig4_suite ~tasks:(if quick then 150 else 300) ())
      ()
  in
  print_string (E.Runtime_real_exp.render rows);
  print_string
    "Expected: static/pred near 1 on an unloaded multicore host (spin\n\
     calibration and arrival delays are approximate; single-core hosts\n\
     serialize the domains and inflate the ratio); steal/static around 1\n\
     at low CCR, where dynamic balancing has enough slack to hide its\n\
     communication blindness.\n";
  rows

(* --- Runtime: recovery policies under kill faults --- *)

let run_resched ~quick =
  section "Runtime: recovery from a killed domain, none vs steal vs resched";
  let rows =
    E.Resched_exp.run
      ~suite:(E.Workload_suite.fig4_suite ~tasks:(if quick then 150 else 300) ())
      ()
  in
  print_string (E.Resched_exp.render rows);
  print_string
    "Expected: none strands the dead domain's dependence cone (done <\n\
     V); resched/steal at or below 1 on most cells — draining the stale\n\
     queue in place keeps the dead processor's placement, rescheduling\n\
     re-balances the frontier over the survivors. Latency is the real\n\
     engine's per-event reschedule cost (µs; FLB's near-linear cost is\n\
     what makes mid-run rescheduling affordable).\n";
  rows

(* --- Perf-regression harness (--regress / --regress-check) --- *)

let run_regress ~quick ~out =
  section
    (Printf.sprintf "Perf regression: ns/task and bytes/task (%s)"
       (if quick then "quick suite" else "full + quick suites"));
  (* The baseline carries both suite sizes (bytes/task is not
     size-independent for every scheduler); --quick shrinks to the quick
     suite alone for a fast local look, but such a file is not a valid
     CI baseline. *)
  let report =
    if quick then E.Regress.run ~quick:true () else E.Regress.run_baseline ()
  in
  print_string (E.Regress.render report);
  Out_channel.with_open_text out (fun oc ->
      output_string oc (E.Regress.to_json report));
  Printf.printf "[regress] wrote %s\n%!" out

let run_regress_check ~baseline_path =
  section
    (Printf.sprintf "Perf regression check: quick suite vs %s" baseline_path);
  let text = In_channel.with_open_text baseline_path In_channel.input_all in
  match E.Regress.of_json text with
  | Error msg ->
    Printf.printf "[regress-check] FAILED: %s does not parse: %s\n%!" baseline_path msg;
    exit 1
  | Ok baseline ->
    Printf.printf "[regress-check] baseline parses: mode=%s, %d entries\n%!"
      baseline.E.Regress.mode
      (List.length baseline.E.Regress.entries);
    let current = E.Regress.run ~quick:true () in
    print_string (E.Regress.render current);
    (* Only allocation is checked, and only against baseline entries of
       the same task count — the baseline carries a quick section for
       exactly this comparison. Wall time is never checked. *)
    (match E.Regress.check ~baseline ~current ~tolerance:0.5 with
    | Ok () -> Printf.printf "[regress-check] allocation metrics match baseline\n%!"
    | Error errors ->
      List.iter (Printf.printf "[regress-check] FAILED: %s\n") errors;
      exit 1)

(* --- driver --- *)

let write_csv dir name content =
  match dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc content);
    Printf.printf "[csv] wrote %s\n%!" path

let () =
  let argv = Array.to_list Sys.argv in
  let has flag = List.mem flag argv in
  let csv_dir =
    let rec find = function
      | "--csv" :: dir :: _ -> Some dir
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let quick = has "--quick" in
  let tasks = if quick then 400 else 2000 in
  let instances = if quick then 2 else 5 in
  (* The regression harness runs alone: it is meant for baselines and CI,
     not as part of the full figure reproduction. *)
  (match
     let rec find = function
       | "--regress-check" :: path :: _ -> Some path
       | _ :: rest -> find rest
       | [] -> None
     in
     find argv
   with
  | Some baseline_path ->
    run_regress_check ~baseline_path;
    exit 0
  | None -> ());
  if has "--regress" then begin
    let out =
      let rec find = function
        | "--regress-out" :: path :: _ -> Some path
        | _ :: rest -> find rest
        | [] -> None
      in
      Option.value (find argv) ~default:"BENCH_schedulers.json"
    in
    run_regress ~quick ~out;
    exit 0
  end;
  let all = not (has "--table1" || has "--fig2" || has "--fig3" || has "--fig4"
                 || has "--ablation" || has "--complexity" || has "--duplication"
                 || has "--granularity" || has "--contention" || has "--random"
                 || has "--multistep" || has "--mesh" || has "--runtime"
                 || has "--resched")
  in
  if all || has "--table1" then run_table1 ();
  if all || has "--fig2" then begin
    bechamel_fig2 ~tasks ~procs_list:[ 2; 8; 32 ]
      ~quota_s:(if quick then 0.25 else 1.0);
    run_fig2_sweep ~tasks ~repeats:(if quick then 1 else 3)
      ~instances:(if quick then 1 else 2)
  end;
  if all || has "--fig3" then begin
    run_fig3 ~tasks ~instances;
    if csv_dir <> None then
      write_csv csv_dir "fig3_speedup.csv"
        (E.Speedup_exp.to_csv
           (E.Speedup_exp.run
              ~suite:(E.Workload_suite.fig3_suite ~tasks ())
              ~instances_per_cell:instances ()))
  end;
  if all || has "--fig4" then begin
    run_fig4 ~tasks ~instances;
    if csv_dir <> None then
      write_csv csv_dir "fig4_nsl.csv"
        (E.Nsl_exp.to_csv
           (E.Nsl_exp.run
              ~domains:(Flb_prelude.Parallel.recommended_domains ())
              ~suite:(E.Workload_suite.fig4_suite ~tasks ())
              ~instances_per_cell:instances ()))
  end;
  if all || has "--ablation" then
    run_ablation ~tasks:(if quick then 400 else 1000) ~instances:(if quick then 2 else 3);
  if all || has "--complexity" then run_complexity ~quick;
  if all || has "--duplication" then run_duplication ~quick;
  if all || has "--granularity" then run_granularity ();
  if all || has "--multistep" then run_multistep ~quick;
  if all || has "--mesh" then run_mesh ~quick;
  if all || has "--contention" then run_contention ~quick;
  if all || has "--random" then run_random_suite ~quick;
  if all || has "--runtime" then begin
    let rows = run_runtime ~quick in
    if csv_dir <> None then
      write_csv csv_dir "runtime_real.csv" (E.Runtime_real_exp.to_csv rows)
  end;
  if all || has "--resched" then begin
    let rows = run_resched ~quick in
    if csv_dir <> None then
      write_csv csv_dir "resched.csv" (E.Resched_exp.to_csv rows)
  end
