open! Flb_taskgraph
open! Flb_platform
open! Flb_core
open Testutil

let machine2 () = Machine.clique ~num_procs:2

(* --- The golden test: the paper's Table 1, row for row. --- *)

type expected_row = {
  ep : (int * (int * float * float * float) list) list;
      (** proc -> [(task, EMT, blevel, LMT)] in queue order *)
  non_ep : (int * float) list;
  action : int * int * float * float;  (** task, proc, start, finish *)
}

let table1 : expected_row list =
  [
    { ep = []; non_ep = [ (0, 0.) ]; action = (0, 0, 0., 2.) };
    {
      ep = [ (0, [ (3, 2., 12., 3.); (1, 2., 11., 3.); (2, 2., 9., 6.) ]) ];
      non_ep = [];
      action = (3, 0, 2., 5.);
    };
    {
      ep = [ (0, [ (2, 2., 9., 6.) ]) ];
      non_ep = [ (1, 3.) ];
      action = (1, 1, 3., 5.);
    };
    {
      ep = [ (0, [ (2, 2., 9., 6.); (5, 6., 8., 6.) ]); (1, [ (4, 5., 6., 7.) ]) ];
      non_ep = [];
      action = (2, 0, 5., 7.);
    };
    {
      ep = [ (0, [ (6, 7., 6., 8.) ]); (1, [ (4, 5., 6., 7.) ]) ];
      non_ep = [ (5, 6.) ];
      action = (4, 1, 5., 8.);
    };
    {
      ep = [ (0, [ (6, 7., 6., 8.) ]) ];
      non_ep = [ (5, 6.) ];
      action = (5, 0, 7., 10.);
    };
    { ep = []; non_ep = [ (6, 8.) ]; action = (6, 1, 8., 10.) };
    { ep = [ (0, [ (7, 12., 2., 13.) ]) ]; non_ep = []; action = (7, 0, 12., 14.) };
  ]

let test_table1_golden () =
  let _, rows = Flb_trace.collect (Example.fig1 ()) (machine2 ()) in
  check_int "eight iterations" (List.length table1) (List.length rows);
  List.iteri
    (fun i (expected, (row : Flb_trace.row)) ->
      let context = Printf.sprintf "row %d" i in
      let t, p, st, ft = expected.action in
      check_int (context ^ " task") t row.Flb_trace.task;
      check_int (context ^ " proc") p row.Flb_trace.proc;
      check_float (context ^ " start") st row.Flb_trace.start;
      check_float (context ^ " finish") ft row.Flb_trace.finish;
      Alcotest.(check (list (pair int (float 1e-9))))
        (context ^ " non-EP list") expected.non_ep row.Flb_trace.non_ep;
      let actual_ep =
        List.map
          (fun (proc, entries) ->
            ( proc,
              List.map
                (fun (e : Flb.ep_entry) -> (e.Flb.task, e.Flb.emt, e.Flb.blevel, e.Flb.lmt))
                entries ))
          row.Flb_trace.ep_lists
      in
      Alcotest.(
        check
          (list
             (pair int
                (list (pair int (triple (float 1e-9) (float 1e-9) (float 1e-9)))))))
        (context ^ " EP lists")
        (List.map
           (fun (p, l) -> (p, List.map (fun (t, a, b, c) -> (t, (a, b, c))) l))
           expected.ep)
        (List.map
           (fun (p, l) -> (p, List.map (fun (t, a, b, c) -> (t, (a, b, c))) l))
           actual_ep))
    (List.combine table1 rows)

let test_fig1_schedule () =
  let s = Flb.run (Example.fig1 ()) (machine2 ()) in
  check_float "makespan 14" Example.fig1_schedule_length (Schedule.makespan s);
  check_int "t0 on p0" 0 (Schedule.proc s 0);
  check_int "t4 on p1" 1 (Schedule.proc s 4);
  check_float "t7 starts at 12" 12.0 (Schedule.start_time s 7);
  match Schedule.validate s with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)

let test_render_fig1_contains () =
  let rendered = Flb_trace.render_fig1 () in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
    loop 0
  in
  List.iter
    (fun cell ->
      check_bool (Printf.sprintf "contains %S" cell) true (contains cell rendered))
    [ "t3[2;12/3]"; "t1[2;11/3]"; "t2[2;9/6]"; "t7[12;2/13]"; "t7 -> p0 [12-14]" ]

(* --- Theorem 3 at run time: FLB's choice always achieves the brute-force
   minimum EST over every (ready task, processor) pair. --- *)

let test_oracle_fig1 () =
  match Flb_check.run_checked (Example.fig1 ()) (machine2 ()) with
  | Ok _ -> ()
  | Error vs ->
    Alcotest.failf "%d violations; first: %s" (List.length vs)
      (Format.asprintf "%a" Flb_check.pp_violation (List.hd vs))

let test_oracle_workloads () =
  List.iter
    (fun (w : Flb_experiments.Workload_suite.workload) ->
      let g = Flb_experiments.Workload_suite.instance w ~ccr:1.0 ~seed:1 in
      List.iter
        (fun p ->
          match Flb_check.run_checked g (Machine.clique ~num_procs:p) with
          | Ok _ -> ()
          | Error vs ->
            Alcotest.failf "%s on %d procs: %d violations" w.name p (List.length vs))
        [ 1; 2; 4 ])
    (Flb_experiments.Workload_suite.fig3_suite ~tasks:150 ())

(* --- Degenerate and edge-case graphs --- *)

let test_single_task () =
  let g = Taskgraph.of_arrays ~comp:[| 5.0 |] ~edges:[||] in
  let s = Flb.run g (machine2 ()) in
  check_float "makespan" 5.0 (Schedule.makespan s);
  check_float "starts at 0" 0.0 (Schedule.start_time s 0)

let test_empty_graph () =
  let g = Taskgraph.of_arrays ~comp:[||] ~edges:[||] in
  let s = Flb.run g (machine2 ()) in
  check_float "empty makespan" 0.0 (Schedule.makespan s);
  check_bool "complete" true (Schedule.is_complete s)

let test_single_proc () =
  let g = Example.fig1 () in
  let s = Flb.run g (Machine.clique ~num_procs:1) in
  check_float "serialized" (Taskgraph.total_comp g) (Schedule.makespan s)

let test_zero_costs () =
  (* all-zero weights must not crash or divide by zero inside FLB *)
  let g =
    Taskgraph.of_arrays ~comp:[| 0.0; 0.0; 0.0 |]
      ~edges:[| (0, 1, 0.0); (0, 2, 0.0) |]
  in
  let s = Flb.run g (machine2 ()) in
  check_float "zero makespan" 0.0 (Schedule.makespan s);
  match Schedule.validate s with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)

let test_independent_tasks_balance () =
  (* 8 equal independent tasks on 4 processors: perfect balance, makespan
     2 — the "load balancing" behaviour the name promises *)
  let g = Flb_workloads.Shapes.independent ~tasks:8 in
  let s = Flb.run g (Machine.clique ~num_procs:4) in
  check_float "balanced makespan" 2.0 (Schedule.makespan s);
  check_float "imbalance 1" 1.0 (Metrics.load_imbalance s)

let test_options_ablation_valid () =
  let g = Example.fig1 () in
  List.iter
    (fun options ->
      let s = Flb.run ~options g (machine2 ()) in
      match Schedule.validate s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "ablation invalid: %s" (String.concat "; " es))
    [
      { Flb.tie_break = Flb.Task_id; prefer_non_ep_on_tie = true };
      { Flb.tie_break = Flb.Bottom_level; prefer_non_ep_on_tie = false };
      { Flb.tie_break = Flb.Task_id; prefer_non_ep_on_tie = false };
    ]

let test_determinism () =
  let g = Flb_experiments.Workload_suite.instance
      (Flb_experiments.Workload_suite.lu ~tasks:200 ()) ~ccr:2.0 ~seed:3
  in
  let m = Machine.clique ~num_procs:4 in
  let s1 = Flb.run g m and s2 = Flb.run g m in
  for t = 0 to Taskgraph.num_tasks g - 1 do
    check_int "same proc" (Schedule.proc s1 t) (Schedule.proc s2 t);
    check_float "same start" (Schedule.start_time s1 t) (Schedule.start_time s2 t)
  done

let run_counted g m =
  Flb_experiments.Registry.run_with_report ~timed:false Flb_experiments.Registry.flb g m

let test_stats_fig1 () =
  let g = Example.fig1 () in
  let s, r = run_counted g (machine2 ()) in
  check_float "same schedule" Example.fig1_schedule_length (Schedule.makespan s);
  check_int "iterations = V" 8 r.Flb_obs.Probe.iterations;
  check_bool "peak ready at most width" true (r.Flb_obs.Probe.peak_ready <= Width.exact g);
  check_bool "some queue activity" true (r.Flb_obs.Probe.task_queue_ops > 0);
  (* the trace shows exactly three demotions: t1 (after t3 runs), t5
     (after t2) and t6 (after t5 pushes PRT(p0) past LMT(t6) = 8) *)
  check_int "demotions" 3 r.Flb_obs.Probe.demotions

let qsuite =
  [
    qtest ~count:100 "operation counters respect the complexity bound"
      arb_scheduling_case (fun (p, procs) ->
        let g = build_dag p in
        let v = Taskgraph.num_tasks g in
        let _, r = run_counted g (Machine.clique ~num_procs:procs) in
        (* every task: at most 2 insertions at readiness, 3 ops on its one
           possible demotion, and 2 removals when scheduled *)
        r.Flb_obs.Probe.iterations = v
        && r.Flb_obs.Probe.task_queue_ops <= 7 * v
        && r.Flb_obs.Probe.demotions <= v
        && r.Flb_obs.Probe.peak_ready <= Width.exact g);
    (* Fig. 2 and E7 print FLB's counters from Cost_exp.measure, which
       also runs FLB for its warm-up and timed runs: the counters it
       reports must be those of exactly one probed run. *)
    qtest ~count:50 "cost measurement counts one probed run" arb_scheduling_case
      (fun (p, procs) ->
        let g = build_dag p in
        let m = Machine.clique ~num_procs:procs in
        let c =
          Flb_experiments.Cost_exp.measure ~repeats:2 Flb_experiments.Registry.flb g m
        in
        let _, r = run_counted g m in
        let per_task n = float_of_int n /. float_of_int (max 1 (Taskgraph.num_tasks g)) in
        c.Flb_experiments.Cost_exp.tasks = Taskgraph.num_tasks g
        && c.Flb_experiments.Cost_exp.task_ops_per_task
           = per_task r.Flb_obs.Probe.task_queue_ops
        && c.Flb_experiments.Cost_exp.proc_ops_per_task
           = per_task r.Flb_obs.Probe.proc_queue_ops
        && c.Flb_experiments.Cost_exp.peak_ready = r.Flb_obs.Probe.peak_ready);
    qtest ~count:150 "Theorem 3 holds on random DAGs" arb_scheduling_case
      (fun (p, procs) ->
        let g = build_dag p in
        match Flb_check.run_checked g (Machine.clique ~num_procs:procs) with
        | Ok _ -> true
        | Error _ -> false);
    qtest ~count:150 "FLB schedules are always valid" arb_scheduling_case
      (fun (p, procs) ->
        let g = build_dag p in
        let s = Flb.run g (Machine.clique ~num_procs:procs) in
        Schedule.is_complete s && Schedule.validate s = Ok ());
    qtest ~count:100 "Theorem 3 holds under every tie-break option"
      arb_scheduling_case (fun (p, procs) ->
        let g = build_dag p in
        List.for_all
          (fun options ->
            match
              Flb_check.run_checked ~options g (Machine.clique ~num_procs:procs)
            with
            | Ok _ -> true
            | Error _ -> false)
          [
            { Flb.tie_break = Flb.Task_id; prefer_non_ep_on_tie = true };
            { Flb.tie_break = Flb.Bottom_level; prefer_non_ep_on_tie = false };
          ]);
    (* The full-communication critical path is NOT a lower bound (local
       edges are free), but the computation-only critical path is:
       communication can be zeroed, computation cannot. *)
    qtest ~count:100 "makespan at least the computation-only critical path"
      arb_scheduling_case (fun (p, procs) ->
        let g = build_dag p in
        let m = Machine.clique ~num_procs:procs in
        let len = Schedule.makespan (Flb.run g m) in
        let comp_cp = Array.fold_left Float.max 0.0 (Levels.blevel_comp_only g) in
        len >= comp_cp -. 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "Table 1 golden trace" `Quick test_table1_golden;
    Alcotest.test_case "fig1 schedule" `Quick test_fig1_schedule;
    Alcotest.test_case "rendered trace cells" `Quick test_render_fig1_contains;
    Alcotest.test_case "oracle on fig1" `Quick test_oracle_fig1;
    Alcotest.test_case "oracle on paper workloads" `Quick test_oracle_workloads;
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "single processor" `Quick test_single_proc;
    Alcotest.test_case "zero costs" `Quick test_zero_costs;
    Alcotest.test_case "independent tasks balance" `Quick test_independent_tasks_balance;
    Alcotest.test_case "ablation options stay valid" `Quick test_options_ablation_valid;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "stats on fig1" `Quick test_stats_fig1;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
