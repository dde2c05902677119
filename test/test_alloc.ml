(* Allocation budget of the probe-less scheduler hot paths.

   The FLB and ETF runs below must allocate O(1) bytes per scheduled
   task beyond graph construction: queue state and schedule arrays are
   sized by V and P up front, keys live in unboxed float arrays, and the
   per-iteration loops stream the CSR edge arrays. The budgets are
   roughly 2x the figure measured on this graph at P = 8 — ~750 B/task
   for FLB (dominated by its 2P fixed-size per-processor queues divided
   by V) and ~140 B/task for ETF; a regression to boxed tuple keys,
   option-returning peeks or per-iteration records blows through them
   immediately — the pre-CSR code measured ~2.5 KB/task for FLB and
   ~38 KB/task for ETF on the same workloads.

   The plain-text formats get the same treatment: parsing the graph's
   text and rendering it and its FLB schedule cost O(bytes) with no
   per-line lists, tuples or [Printf]. Best of 5 on this graph,
   [Serial.of_string] measures ~640 B/task (the CSR arrays, the growable
   edge arrays and one string per float field), [Serial.to_string] ~270 and
   [Schedule_io.to_string] ~70; the budgets are about 2x that. The
   split-list parser, tuple-boxing [Builder] and [Printf] renderers
   measured 3726, 2541 and 196 B/task. *)

open! Flb_taskgraph
open! Flb_platform

let graph =
  lazy
    (Flb_experiments.Workload_suite.instance
       (Flb_experiments.Workload_suite.stencil ~tasks:1000 ())
       ~ccr:1.0 ~seed:1)

let machine = Machine.clique ~num_procs:8

(* The allocation gate's measurement ([Cost_exp.time]): a warm-up run,
   then the best of 5 runs, each started on an empty minor heap so that
   what earlier tests left there cannot land in the figure. *)
let bytes_per_task run =
  let g = Lazy.force graph in
  let _, s = Flb_experiments.Cost_exp.time ~repeats:5 (fun () -> run g machine) in
  s.bytes /. float_of_int (Taskgraph.num_tasks g)

let check_budget name budget measured =
  if measured > budget then
    Alcotest.failf
      "%s hot path allocates %.1f bytes/task (budget %.1f): a per-iteration \
       allocation crept back in"
      name measured budget

let test_flb_budget () =
  check_budget "FLB" 1600.0
    (bytes_per_task (fun g m ->
         ignore (Flb_core.Flb.run ~probe:Flb_obs.Probe.null g m)))

let test_etf_budget () =
  check_budget "ETF" 300.0
    (bytes_per_task (fun g m -> ignore (Flb_schedulers.Etf.run g m)))

let text = lazy (Serial.to_string (Lazy.force graph))

let test_parse_budget () =
  check_budget "Serial.of_string" 1300.0
    (bytes_per_task (fun _ _ -> ignore (Serial.of_string (Lazy.force text))))

let test_render_budget () =
  check_budget "Serial.to_string" 550.0
    (bytes_per_task (fun g _ -> ignore (Serial.to_string g)))

let test_schedule_render_budget () =
  let s = lazy (Flb_core.Flb.run (Lazy.force graph) machine) in
  check_budget "Schedule_io.to_string" 150.0
    (bytes_per_task (fun _ _ -> ignore (Schedule_io.to_string (Lazy.force s))))

let suite =
  [
    Alcotest.test_case "FLB allocates O(1) bytes per task" `Quick test_flb_budget;
    Alcotest.test_case "ETF allocates O(1) bytes per task" `Quick test_etf_budget;
    Alcotest.test_case "graph text parses in O(bytes)" `Quick test_parse_budget;
    Alcotest.test_case "graph text renders in O(bytes)" `Quick test_render_budget;
    Alcotest.test_case "schedule text renders in O(bytes)" `Quick
      test_schedule_render_budget;
  ]
