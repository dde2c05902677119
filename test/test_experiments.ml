open Testutil
module E = Flb_experiments

let small_suite () = E.Workload_suite.fig4_suite ~tasks:120 ()

let test_registry () =
  check_int "paper set has five" 5 (List.length E.Registry.paper_set);
  Alcotest.(check (list string)) "paper order"
    [ "MCP"; "ETF"; "DSC-LLB"; "FCP"; "FLB" ]
    (E.Registry.names E.Registry.paper_set);
  check_bool "find is case-insensitive" true
    (match E.Registry.find "flb" with Some a -> a.E.Registry.name = "FLB" | None -> false);
  check_bool "find unknown" true (E.Registry.find "nope" = None)

let test_workload_suite () =
  let suite = E.Workload_suite.fig3_suite ~tasks:2000 () in
  Alcotest.(check (list string)) "fig3 workloads"
    [ "LU"; "Laplace"; "Stencil"; "FFT" ]
    (List.map (fun w -> w.E.Workload_suite.name) suite);
  List.iter
    (fun w ->
      let v = Flb_taskgraph.Taskgraph.num_tasks w.E.Workload_suite.structure in
      check_bool
        (Printf.sprintf "%s sized near 2000 (%d)" w.E.Workload_suite.name v)
        true
        (v >= 1900 && v <= 2400))
    suite

let test_instance_determinism () =
  let w = E.Workload_suite.stencil ~tasks:100 () in
  let a = E.Workload_suite.instance w ~ccr:1.0 ~seed:4 in
  let b = E.Workload_suite.instance w ~ccr:1.0 ~seed:4 in
  let c = E.Workload_suite.instance w ~ccr:1.0 ~seed:5 in
  check_float "same seed same weights" (Flb_taskgraph.Taskgraph.comp a 0)
    (Flb_taskgraph.Taskgraph.comp b 0);
  check_bool "different seed different weights" true
    (Flb_taskgraph.Taskgraph.comp a 0 <> Flb_taskgraph.Taskgraph.comp c 0)

let test_nsl_mcp_is_one () =
  let cells =
    E.Nsl_exp.run ~suite:(small_suite ()) ~procs:[ 2; 4 ] ~instances_per_cell:2 ()
  in
  check_bool "cells produced" true (List.length cells > 0);
  List.iter
    (fun c ->
      if c.E.Nsl_exp.algorithm = "MCP" then
        check_float "MCP NSL is 1 by construction" 1.0 c.E.Nsl_exp.nsl_mean)
    cells;
  List.iter
    (fun c ->
      check_bool "NSL positive and sane" true
        (c.E.Nsl_exp.nsl_mean > 0.3 && c.E.Nsl_exp.nsl_mean < 5.0))
    cells

let test_nsl_parallel_equals_sequential () =
  let suite = [ E.Workload_suite.stencil ~tasks:80 () ] in
  let seq = E.Nsl_exp.run ~suite ~procs:[ 2; 4 ] ~instances_per_cell:2 () in
  let par =
    E.Nsl_exp.run ~domains:4 ~suite ~procs:[ 2; 4 ] ~instances_per_cell:2 ()
  in
  check_int "same cell count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      check_bool "identical cells" true
        (a.E.Nsl_exp.workload = b.E.Nsl_exp.workload
        && a.E.Nsl_exp.algorithm = b.E.Nsl_exp.algorithm
        && a.E.Nsl_exp.procs = b.E.Nsl_exp.procs
        && a.E.Nsl_exp.nsl_mean = b.E.Nsl_exp.nsl_mean))
    seq par

let test_nsl_render_and_csv () =
  let cells =
    E.Nsl_exp.run
      ~suite:[ E.Workload_suite.stencil ~tasks:80 () ]
      ~procs:[ 2 ] ~instances_per_cell:2 ()
  in
  let text = E.Nsl_exp.render cells in
  check_bool "render nonempty" true (String.length text > 0);
  let csv = E.Nsl_exp.to_csv cells in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check_int "csv rows = cells + header" (List.length cells + 1) (List.length lines)

let test_speedup_monotone_scale () =
  let cells =
    E.Speedup_exp.run
      ~suite:[ E.Workload_suite.stencil ~tasks:150 () ]
      ~ccrs:[ 0.2 ] ~procs:[ 1; 4; 16 ] ~instances_per_cell:2 ()
  in
  let find p =
    match List.find_opt (fun c -> c.E.Speedup_exp.procs = p) cells with
    | Some c -> c.E.Speedup_exp.speedup_mean
    | None -> Alcotest.failf "missing P=%d" p
  in
  check_bool "P=1 speedup near 1" true (Float.abs (find 1 -. 1.0) < 1e-6);
  check_bool "more processors help a regular coarse graph" true (find 16 > find 4 *. 0.9);
  check_bool "speedup below P" true (find 16 <= 16.0 +. 1e-9)

let test_speedup_render () =
  let cells =
    E.Speedup_exp.run
      ~suite:[ E.Workload_suite.fft ~tasks:64 () ]
      ~ccrs:[ 1.0 ] ~procs:[ 1; 2 ] ~instances_per_cell:1 ()
  in
  check_bool "render nonempty" true (String.length (E.Speedup_exp.render cells) > 0);
  check_bool "csv has header" true
    (String.length (E.Speedup_exp.to_csv cells) > 30)

let test_runtime_exp_smoke () =
  let cells =
    E.Runtime_exp.run
      ~algorithms:[ E.Registry.flb; E.Registry.fcp ]
      ~suite:[ E.Workload_suite.stencil ~tasks:100 () ]
      ~ccrs:[ 1.0 ] ~procs:[ 2 ] ~repeats:1 ~instances_per_cell:1 ()
  in
  check_int "two cells" 2 (List.length cells);
  List.iter
    (fun c -> check_bool "time measured" true (c.E.Runtime_exp.seconds >= 0.0))
    cells;
  check_bool "render nonempty" true (String.length (E.Runtime_exp.render cells) > 0)

let test_random_suite () =
  let suite = E.Workload_suite.random_suite ~tasks:200 () in
  check_int "six workloads" 6 (List.length suite);
  List.iter
    (fun w ->
      let v = Flb_taskgraph.Taskgraph.num_tasks w.E.Workload_suite.structure in
      check_bool
        (Printf.sprintf "%s has tasks (%d)" w.E.Workload_suite.name v)
        true (v >= 100))
    suite

let test_complexity_exp_smoke () =
  let cells =
    E.Complexity_exp.run ~sizes:[ 100 ] ~procs:[ 2 ] ~repeats:1 ()
  in
  check_int "three algorithms" 3 (List.length cells);
  (match List.find_opt (fun c -> c.E.Complexity_exp.algorithm = "FLB") cells with
  | Some c ->
    check_bool "ops counted" true (c.E.Complexity_exp.task_queue_ops_per_task > 0.0);
    check_bool "peak ready recorded" true (c.E.Complexity_exp.peak_ready > 0)
  | None -> Alcotest.fail "no FLB cell");
  check_bool "render" true (String.length (E.Complexity_exp.render cells) > 0);
  check_bool "csv" true (String.length (E.Complexity_exp.to_csv cells) > 0)

let test_duplication_exp_smoke () =
  let cells = E.Duplication_exp.run ~ccrs:[ 2.0 ] ~procs:[ 4 ] ~tasks:60 () in
  check_bool "cells" true (List.length cells > 0);
  List.iter
    (fun c ->
      if c.E.Duplication_exp.algorithm = "DSH" then
        check_bool "DSH counted copies" true (c.E.Duplication_exp.copies > 0))
    cells;
  check_bool "render" true (String.length (E.Duplication_exp.render cells) > 0)

let test_granularity_exp_smoke () =
  let cells = E.Granularity_exp.run ~procs:4 ~ccrs:[ 1.0 ] ~grains:[ 1.0; infinity ] () in
  check_bool "cells" true (List.length cells > 0);
  (* unlimited merging never increases the task count *)
  let by_key = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.replace by_key
        (c.E.Granularity_exp.workload, c.E.Granularity_exp.max_grain)
        c.E.Granularity_exp.coarse_tasks)
    cells;
  Hashtbl.iter
    (fun (w, grain) v ->
      if grain = infinity then
        match Hashtbl.find_opt by_key (w, 1.0) with
        | Some fine -> check_bool "coarser or equal" true (v <= fine)
        | None -> ())
    by_key;
  check_bool "render" true (String.length (E.Granularity_exp.render cells) > 0)

let test_contention_exp_smoke () =
  let cells =
    E.Contention_exp.run
      ~suite:[ E.Workload_suite.stencil ~tasks:100 () ]
      ~ccrs:[ 2.0 ] ~procs:[ 4 ] ()
  in
  check_int "two algorithms" 2 (List.length cells);
  List.iter
    (fun c ->
      check_float "free replay equals analytic" c.E.Contention_exp.analytic
        c.E.Contention_exp.sim_unlimited;
      check_bool "ports only slow down" true
        (c.E.Contention_exp.sim_one_port >= c.E.Contention_exp.sim_two_ports -. 1e-9
        && c.E.Contention_exp.sim_two_ports >= c.E.Contention_exp.analytic -. 1e-9))
    cells;
  check_bool "render" true (String.length (E.Contention_exp.render cells) > 0)

let test_table () =
  let t = E.Table.create ~header:[ "a"; "bb" ] in
  E.Table.add_row t [ "1"; "2" ];
  E.Table.add_separator t;
  E.Table.add_row t [ "333"; "4" ];
  check_raises_invalid "bad width" (fun () -> E.Table.add_row t [ "x" ]);
  let out = E.Table.render t in
  check_bool "contains header" true (String.length out > 0);
  Alcotest.(check string) "float cell" "1.23" (E.Table.cell_float 1.2345);
  Alcotest.(check string) "float cell decimals" "1.2345"
    (E.Table.cell_float ~decimals:4 1.2345)

let find hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find hay needle <> None

(* The allocation gate CI runs against the committed BENCH_schedulers.json:
   [of_json] must read back what [to_json] writes, and [check] must fail
   exactly on a bytes/task drift past both the relative tolerance and the
   64-byte slack, or on an entry the baseline lacks. *)
let test_regress_gate () =
  let entry ?(ns = 950.5) ?(bytes = 300.0) scheduler workload =
    {
      E.Regress.scheduler;
      workload;
      tasks = 400;
      procs = 8;
      ccr = 1.0;
      ns_per_task = ns;
      bytes_per_task = bytes;
    }
  in
  let quoted = "a\"b\\c" and slashed = "w\\\"x" in
  let baseline =
    {
      E.Regress.mode = "full+quick";
      entries = [ entry "FLB" "Stencil"; entry ~bytes:40.0 quoted slashed ];
    }
  in
  let json = E.Regress.to_json baseline in
  (match E.Regress.of_json json with
  | Ok r -> check_bool "of_json (to_json r) = r" true (r = baseline)
  | Error msg -> Alcotest.fail msg);
  let check entries =
    E.Regress.check ~baseline ~current:{ baseline with entries } ~tolerance:0.5
  in
  let fails_naming what needle entries =
    match check entries with
    | Error [ msg ] -> check_bool (what ^ ": " ^ msg) true (contains msg needle)
    | _ -> Alcotest.fail (what ^ ": expected exactly one failure")
  in
  check_bool "a report against itself" true (check baseline.entries = Ok ());
  fails_naming "+160 B, +53%" "FLB/Stencil/P=8/V=400"
    [ entry ~bytes:460.0 "FLB" "Stencil" ];
  fails_naming "-160 B, -53%" "FLB/Stencil/P=8/V=400"
    [ entry ~bytes:140.0 "FLB" "Stencil" ];
  check_bool "+60 B, +150%" true (check [ entry ~bytes:100.0 quoted slashed ] = Ok ());
  check_bool "+140 B, +47%" true (check [ entry ~bytes:440.0 "FLB" "Stencil" ] = Ok ());
  check_bool "ns/task only" true (check [ entry ~ns:1e6 "FLB" "Stencil" ] = Ok ());
  fails_naming "no baseline" "no baseline entry" [ entry "ETF" "LU" ];
  let schema2 = Bytes.of_string json in
  (match find json "flb-regress/1" with
  | Some i -> Bytes.set schema2 (i + 12) '2'
  | None -> Alcotest.fail "no schema field");
  check_bool "schema flb-regress/2 rejected" true
    (Result.is_error (E.Regress.of_json (Bytes.to_string schema2)));
  check_bool "trailing content rejected" true
    (Result.is_error (E.Regress.of_json (json ^ "{}")))

(* Real-execution tables name the host's cores and mark the rows that ran
   more domains than that. *)
let test_oversubscribed_rows () =
  let cores = Domain.recommended_domain_count () in
  (* The domains cell of a one-row table: note, header, rule, row. *)
  let domains_cell text =
    match String.split_on_char '\n' text with
    | note :: _ :: _ :: row :: _ ->
      check_bool "cores named" true
        (contains note (Printf.sprintf "host: %d cores" cores));
      List.nth (List.filter (( <> ) "") (String.split_on_char ' ' row)) 2
    | _ -> Alcotest.fail "table too short"
  in
  let runtime domains =
    E.Runtime_real_exp.render
      [
        {
          E.Runtime_real_exp.workload = "synthetic";
          tasks = 10;
          domains;
          predicted_units = 10.0;
          static_units = 11.0;
          steal_units = 12.0;
          affinity_units = 11.5;
          static_ratio = 1.1;
          steal_vs_static = 1.09;
          affinity_vs_steal = 0.96;
          hint_hit_rate = 0.9;
          steals = 3;
        };
      ]
  in
  let resched domains =
    E.Resched_exp.render
      [
        {
          E.Resched_exp.workload = "synthetic";
          tasks = 10;
          domains;
          fault = "kill:0:2.5";
          predicted_units = 10.0;
          none_completed = 6;
          steal_units = 12.0;
          resched_units = 11.0;
          resched_over_steal = 0.92;
          rescheds = 1;
          real_resched_units = 11.2;
          resched_latency_us = 40.0;
        };
      ]
  in
  List.iter
    (fun (label, render) ->
      Alcotest.(check string)
        (label ^ ": nproc + 1 domains marked")
        (Printf.sprintf "%d*" (cores + 1))
        (domains_cell (render (cores + 1)));
      Alcotest.(check string) (label ^ ": 1 domain unmarked") "1"
        (domains_cell (render 1)))
    [ ("runtime", runtime); ("resched", resched) ]

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "workload suite" `Quick test_workload_suite;
    Alcotest.test_case "instance determinism" `Quick test_instance_determinism;
    Alcotest.test_case "NSL: MCP is the unit" `Quick test_nsl_mcp_is_one;
    Alcotest.test_case "NSL render and csv" `Quick test_nsl_render_and_csv;
    Alcotest.test_case "NSL parallel = sequential" `Quick
      test_nsl_parallel_equals_sequential;
    Alcotest.test_case "speedup scales" `Quick test_speedup_monotone_scale;
    Alcotest.test_case "speedup render" `Quick test_speedup_render;
    Alcotest.test_case "runtime experiment smoke" `Quick test_runtime_exp_smoke;
    Alcotest.test_case "random suite" `Quick test_random_suite;
    Alcotest.test_case "complexity experiment smoke" `Quick test_complexity_exp_smoke;
    Alcotest.test_case "duplication experiment smoke" `Quick test_duplication_exp_smoke;
    Alcotest.test_case "granularity experiment smoke" `Quick test_granularity_exp_smoke;
    Alcotest.test_case "contention experiment smoke" `Quick test_contention_exp_smoke;
    Alcotest.test_case "table" `Quick test_table;
    Alcotest.test_case "regress gate" `Quick test_regress_gate;
    Alcotest.test_case "oversubscribed rows" `Quick test_oversubscribed_rows;
  ]
