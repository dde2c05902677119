open! Flb_platform
module Flb = Flb_core.Flb

type output = { text : string; csv : string option }

type t = { name : string; title : string; run : quick:bool -> output }

(* [size ~quick full small]: the paper-scale parameter, or its smoke-run
   stand-in. *)
let size ~quick full small = if quick then small else full

let sized tasks = Printf.sprintf "Graphs of V ≈ %d tasks\n" tasks

let domains () = Flb_prelude.Parallel.recommended_domains ()

let text text = { text; csv = None }

let table1 ~quick:_ =
  let length =
    Flb.schedule_length (Flb_taskgraph.Example.fig1 ()) (Machine.clique ~num_procs:2)
  in
  text
    (Flb_core.Flb_trace.render_fig1 ()
    ^ Printf.sprintf "schedule length: %g (paper: 14)\n" length)

let fig2 ~quick =
  let cells =
    Cost_exp.fig2
      ~suite:(Workload_suite.fig4_suite ~tasks:(size ~quick 2000 400) ())
      ~instances_per_cell:(size ~quick 2 1) ()
  in
  {
    text =
      Cost_exp.render_fig2 cells
      ^ "Expected shape (paper): ETF largest and growing steeply with P; MCP\n\
         growing moderately; DSC-LLB roughly flat; FCP and FLB smallest, flat.\n";
    csv = Some (Cost_exp.to_csv cells);
  }

let fig3 ~quick =
  let tasks = size ~quick 2000 400 in
  let cells =
    Speedup_exp.run
      ~suite:(Workload_suite.fig3_suite ~tasks ())
      ~instances_per_cell:(size ~quick 5 2) ()
  in
  {
    text =
      sized tasks ^ Speedup_exp.render cells
      ^ "Expected shape (paper): Stencil and FFT near-linear; LU and Laplace\n\
         flatten at large P; CCR 5.0 speedups below CCR 0.2.\n";
    csv = Some (Speedup_exp.to_csv cells);
  }

let fig4 ~quick =
  let tasks = size ~quick 2000 400 in
  let cells =
    Nsl_exp.run ~domains:(domains ())
      ~suite:(Workload_suite.fig4_suite ~tasks ())
      ~instances_per_cell:(size ~quick 5 2) ()
  in
  {
    text =
      sized tasks ^ Nsl_exp.render cells
      ^ "Expected shape (paper): FLB comparable to ETF and MCP (within a few\n\
         percent, better on fine-grain Stencil/Laplace, worse on LU);\n\
         DSC-LLB consistently above all one-step algorithms.\n";
    csv = Some (Nsl_exp.to_csv cells);
  }

let variant name describe run = { Registry.name; describe; run; resumable = None }

let flb_variant name describe options =
  variant name describe (fun ?probe g m -> Flb.run ~options ?probe g m)

let ablation ~quick =
  let tasks = size ~quick 1000 400 in
  let algorithms =
    [
      Registry.mcp;
      variant "MCP-ins" "MCP with insertion-based placement" (fun ?probe g m ->
          Flb_schedulers.Mcp.run ~insertion:true ?probe g m);
      Registry.flb;
      flb_variant "FLB-id" "FLB breaking ties by task id instead of bottom level"
        { Flb.tie_break = Flb.Task_id; prefer_non_ep_on_tie = true };
      flb_variant "FLB-ep" "FLB preferring the EP pair on start-time ties"
        { Flb.tie_break = Flb.Bottom_level; prefer_non_ep_on_tie = false };
      Registry.dsc_llb;
      variant "DSC-LLB-l" "DSC-LLB with the paper's literal least-bottom-level LLB priority"
        (fun ?probe:_ g m ->
          Flb_schedulers.Dsc_llb.run ~priority:Flb_schedulers.Llb.Least_blevel g m);
    ]
  in
  text
    (sized tasks
    ^ Nsl_exp.render
        (Nsl_exp.run ~domains:(domains ()) ~algorithms
           ~suite:(Workload_suite.fig4_suite ~tasks ())
           ~procs:[ 4; 16 ] ~instances_per_cell:(size ~quick 3 2) ()))

let complexity ~quick =
  let cells =
    Cost_exp.scaling
      ~sizes:(size ~quick [ 250; 500; 1000; 2000; 4000 ] [ 250; 1000 ])
      ()
  in
  {
    text =
      Cost_exp.render_scaling cells
      ^ "Expected: FLB/FCP ns-per-task roughly flat in V and P (the paper's\n\
         O(V(logW + logP) + E) and O(VlogP + E) bounds); ETF ns-per-task\n\
         growing with both (O(W(E+V)P)). FLB queue ops per task stay below a\n\
         small constant (each task enters and leaves at most two queues).\n";
    csv = Some (Cost_exp.to_csv cells);
  }

let duplication ~quick =
  text
    (Duplication_exp.render (Duplication_exp.run ~tasks:(size ~quick 500 200) ())
    ^ "Expected: on fork-heavy graphs at high CCR, DSH's duplication beats\n\
       every non-duplicating scheduler on makespan while placing extra\n\
       copies and paying a far larger scheduling time — the trade-off the\n\
       paper's introduction uses to motivate non-duplicating heuristics.\n")

let granularity ~quick:_ =
  text
    (Granularity_exp.render (Granularity_exp.run ())
    ^ "Expected: merging chains removes internal messages, so at high CCR\n\
       the coarse graph schedules both better and faster; at low CCR the\n\
       effect is mostly on scheduling time (fewer tasks to place).\n")

let multistep ~quick =
  let tasks = size ~quick 1000 300 in
  let algorithms =
    [ Registry.mcp; Registry.flb; Registry.dsc_llb; Option.get (Registry.find "SARKAR-LLB") ]
  in
  text
    (sized tasks
    ^ Nsl_exp.render
        (Nsl_exp.run ~domains:(domains ()) ~algorithms
           ~suite:(Workload_suite.fig4_suite ~tasks ())
           ~procs:[ 4; 16 ] ~instances_per_cell:(size ~quick 3 2) ())
    ^ "Expected: both multi-step methods trail the one-step algorithms;\n\
       Sarkar's O(E(V+E)) clustering is far slower to compute than DSC\n\
       for comparable mapped quality — why DSC is the step the paper\n\
       benchmarks.\n")

let mesh ~quick =
  let tasks = size ~quick 2000 300 in
  text
    (sized tasks
    ^ Mesh_exp.render (Mesh_exp.run ~suite:(Workload_suite.fig4_suite ~tasks ()) ())
    ^ "Expected: on the clique FLB takes zero suboptimal steps (Theorem 3).\n\
       On the 4x4 mesh roughly half its selections are beaten by the\n\
       exhaustive scan; at coarse grain the makespan stays within a few\n\
       percent of ETF anyway, while at fine grain the lemma's failure\n\
       costs up to ~2.4x — off the uniform machine model the cheap\n\
       two-candidate rule genuinely needs topology awareness.\n")

let contention ~quick =
  let tasks = size ~quick 2000 400 in
  text
    (sized tasks
    ^ Contention_exp.render
        (Contention_exp.run ~suite:(Workload_suite.fig4_suite ~tasks ()) ())
    ^ "Expected: the contention-free replay matches the analytic makespan\n\
       exactly; port-limited replays degrade more at high CCR and high P,\n\
       quantifying the paper's contention-free modelling assumption.\n")

let random ~quick =
  let tasks = size ~quick 2000 400 in
  text
    (sized tasks
    ^ Nsl_exp.render
        (Nsl_exp.run ~domains:(domains ())
           ~suite:(Workload_suite.random_suite ~tasks ())
           ~procs:[ 4; 16 ] ~instances_per_cell:(size ~quick 3 2) ()))

let runtime ~quick =
  let rows =
    Runtime_real_exp.run
      ~suite:(Workload_suite.fig4_suite ~tasks:(size ~quick 300 150) ())
      ()
  in
  {
    text =
      Runtime_real_exp.render rows
      ^ "Expected: static/pred near 1 on an unloaded multicore host (spin\n\
         calibration and arrival delays are approximate; single-core hosts\n\
         serialize the domains and inflate the ratio); steal/static around 1\n\
         at low CCR, where dynamic balancing has enough slack to hide its\n\
         communication blindness.\n";
    csv = Some (Runtime_real_exp.to_csv rows);
  }

let resched ~quick =
  let rows =
    Resched_exp.run
      ~suite:(Workload_suite.fig4_suite ~tasks:(size ~quick 300 150) ())
      ()
  in
  {
    text =
      Resched_exp.render rows
      ^ "Expected: none strands the dead domain's dependence cone (done <\n\
         V); resched/steal at or below 1 on most cells — draining the stale\n\
         queue in place keeps the dead processor's placement, rescheduling\n\
         re-balances the frontier over the survivors. Latency is the real\n\
         engine's per-event reschedule cost (µs; FLB's near-linear cost is\n\
         what makes mid-run rescheduling affordable).\n";
    csv = Some (Resched_exp.to_csv rows);
  }

let all =
  List.map
    (fun (name, title, run) -> { name; title; run })
    [
      ("table1", "Table 1: FLB execution trace on the Fig. 1 graph (P = 2)", table1);
      ("fig2", "Figure 2: scheduling cost vs P (best of 3)", fig2);
      ("fig3", "Figure 3: FLB speedup", fig3);
      ("fig4", "Figure 4: normalized schedule lengths", fig4);
      ("ablation", "Ablation: design choices", ablation);
      ( "complexity",
        "E7 complexity scaling: cost per task and FLB queue ops vs V and P (best of 3)",
        complexity );
      ("duplication", "E8 duplication: DSH vs the non-duplicating schedulers", duplication);
      ("granularity", "E9 grain packing: chain merging ahead of FLB", granularity);
      ( "multistep",
        "E12 multi-step methods: clustering choice (DSC vs Sarkar) under LLB",
        multistep );
      ("mesh", "E13 mesh topology: FLB where Theorem 3 does not hold", mesh);
      ("contention", "E11 contention: replaying schedules with bounded send ports", contention);
      ( "random",
        "E10 random/irregular structures: NSL vs MCP beyond the paper's kernels",
        random );
      ("runtime", "Runtime: real makespan on OCaml domains, FLB static vs work stealing", runtime);
      ("resched", "Runtime: recovery from a killed domain, none vs steal vs resched", resched);
    ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> e.name = name) all
