(* Allocation budget of the probe-less scheduler hot paths.

   The FLB and ETF runs below must allocate O(1) bytes per scheduled
   task beyond graph construction: queue state and schedule arrays are
   sized by V and P up front, keys live in unboxed float arrays, and the
   per-iteration loops stream the CSR edge arrays. Each figure is exact
   ([Cost_exp.time] brackets a run with minor collections). The budgets
   are roughly 2x the figure measured on this graph at P = 8 — ~660
   B/task for FLB, about 460 of it minor-heap blocks such as the floats
   boxed where they cross the [Flat_heap] and [Schedule] library
   boundaries, and ~170 B/task for ETF; a regression to boxed tuple
   keys, option-returning peeks or per-iteration records blows through
   them immediately. FLB's
   per-processor queues are two heap families over one size-V index
   each, so its figure stays nearly flat in P (~740 B/task at P = 256)
   and the P = 256 case has the same budget; one size-V heap per queue
   per processor read 17.6 KB/task there.

   The plain-text formats get the same treatment: parsing the graph's
   text and rendering it and its FLB schedule cost O(bytes) with no
   per-line lists, tuples or [Printf], and a plain decimal float is
   read and written without allocating. On this graph
   [Serial.of_string] measures ~763 B/task (the CSR arrays and the
   growable edge arrays), [Serial.to_string] ~305 (the buffer, and the
   floats [Taskgraph.comp] returns boxed) and [Schedule_io.to_string]
   ~80; the budgets sit about 30% above. A [String.sub], an option and
   a boxed float per float field read 1010, and a C-library string per
   float written read 428 and 112. The split-list parser, tuple-boxing
   [Builder] and [Printf] renderers measured 3726, 2541 and 196 B/task
   under a counter that undercounted the minor heap. *)

open! Flb_taskgraph
open! Flb_platform

let graph =
  lazy
    (Flb_experiments.Workload_suite.instance
       (Flb_experiments.Workload_suite.stencil ~tasks:1000 ())
       ~ccr:1.0 ~seed:1)

let machine = Machine.clique ~num_procs:8

(* The allocation gate's measurement ([Cost_exp.time]): a warm-up run,
   then the best of 5 runs, each bracketed by minor collections so that
   the figure is exactly what the run allocated. *)
let bytes_per_task ?(machine = machine) run =
  let g = Lazy.force graph in
  let _, s = Flb_experiments.Cost_exp.time ~repeats:5 (fun () -> run g machine) in
  s.bytes /. float_of_int (Taskgraph.num_tasks g)

let check_budget name budget measured =
  if measured > budget then
    Alcotest.failf
      "%s hot path allocates %.1f bytes/task (budget %.1f): a per-iteration \
       or per-processor allocation crept back in"
      name measured budget

let flb_budget procs () =
  check_budget
    (Printf.sprintf "FLB at P = %d" procs)
    1350.0
    (bytes_per_task ~machine:(Machine.clique ~num_procs:procs) (fun g m ->
         ignore (Flb_core.Flb.run ~probe:Flb_obs.Probe.null g m)))

let test_etf_budget () =
  check_budget "ETF" 300.0
    (bytes_per_task (fun g m -> ignore (Flb_schedulers.Etf.run g m)))

let text = lazy (Serial.to_string (Lazy.force graph))

let test_parse_budget () =
  check_budget "Serial.of_string" 1000.0
    (bytes_per_task (fun _ _ -> ignore (Serial.of_string (Lazy.force text))))

let test_render_budget () =
  check_budget "Serial.to_string" 400.0
    (bytes_per_task (fun g _ -> ignore (Serial.to_string g)))

let test_schedule_render_budget () =
  let s = lazy (Flb_core.Flb.run (Lazy.force graph) machine) in
  check_budget "Schedule_io.to_string" 105.0
    (bytes_per_task (fun _ _ -> ignore (Schedule_io.to_string (Lazy.force s))))

let suite =
  [
    Alcotest.test_case "FLB allocates O(1) bytes per task" `Quick (flb_budget 8);
    Alcotest.test_case "FLB allocates O(1) B/task at P = 256" `Quick (flb_budget 256);
    Alcotest.test_case "ETF allocates O(1) bytes per task" `Quick test_etf_budget;
    Alcotest.test_case "graph text parses in O(bytes)" `Quick test_parse_budget;
    Alcotest.test_case "graph text renders in O(bytes)" `Quick test_render_budget;
    Alcotest.test_case "schedule text renders in O(bytes)" `Quick
      test_schedule_render_budget;
  ]
