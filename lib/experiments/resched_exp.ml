open! Flb_taskgraph
module Runtime = Flb_runtime
module Metrics = Flb_obs.Metrics

type row = {
  workload : string;
  tasks : int;
  domains : int;
  fault : string;
  predicted_units : float;
  none_completed : int;
  steal_units : float;
  resched_units : float;
  resched_over_steal : float;
  rescheds : int;
  real_resched_units : float;
  resched_latency_us : float;
}

let run ?(algorithm = Registry.flb) ?suite ?(ccr = 0.2)
    ?(domains_list = [ 2; 4; 8 ]) ?(unit_ns = 20_000.0) ?(kill_frac = 0.25)
    ?(resched_algo = "FLB") () =
  let suite =
    match suite with Some s -> s | None -> Workload_suite.fig4_suite ~tasks:300 ()
  in
  List.concat_map
    (fun (w : Workload_suite.workload) ->
      let graph = Workload_suite.instance w ~ccr ~seed:1 in
      List.map
        (fun domains ->
          let machine = Flb_platform.Machine.clique ~num_procs:domains in
          let sched = algorithm.Registry.run graph machine in
          let predicted = Flb_platform.Schedule.makespan sched in
          (* Kill the last domain a quarter of the way into the
             predicted run: late enough that real history exists, early
             enough that most of the frontier is still open to
             replacement. *)
          let victim = domains - 1 in
          let at = kill_frac *. predicted in
          let faults = [ Runtime.Fault.Kill { domain = victim; at } ] in
          let vc recover = Runtime.Virtual_clock.run_static ~faults ~recover sched in
          let none = vc Runtime.Engine.No_recovery in
          let steal = vc Runtime.Engine.Steal_queues in
          let resched = vc (Runtime.Engine.Resched resched_algo) in
          (* The same fault on the real engine, for the recovery latency
             the virtual clock cannot measure. *)
          let reg = Metrics.create () in
          let config =
            {
              Runtime.Engine.default_config with
              domains;
              unit_ns;
              faults;
              recover = Runtime.Engine.Resched resched_algo;
              metrics = Some reg;
            }
          in
          let real = Runtime.Static.run ~config sched in
          let latency_us =
            let h = Metrics.histogram reg "rt_resched_latency_ns" in
            if Metrics.Histogram.count h = 0 then Float.nan
            else
              Metrics.Histogram.sum h
              /. float_of_int (Metrics.Histogram.count h)
              /. 1e3
          in
          {
            workload = w.Workload_suite.name;
            tasks = Taskgraph.num_tasks graph;
            domains;
            fault = Runtime.Fault.to_string faults;
            predicted_units = predicted;
            none_completed = none.Runtime.Virtual_clock.completed;
            steal_units = steal.Runtime.Virtual_clock.makespan;
            resched_units = resched.Runtime.Virtual_clock.makespan;
            resched_over_steal =
              resched.Runtime.Virtual_clock.makespan
              /. steal.Runtime.Virtual_clock.makespan;
            rescheds = resched.Runtime.Virtual_clock.rescheds;
            real_resched_units = real.Runtime.Engine.real_units;
            resched_latency_us = latency_us;
          })
        domains_list)
    suite

let render rows =
  let table =
    Table.create
      ~header:
        [
          "workload";
          "V";
          "domains";
          "fault";
          "predicted";
          "none done";
          "steal";
          "resched";
          "resched/steal";
          "events";
          "real resched";
          "latency µs";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.workload;
          string_of_int r.tasks;
          string_of_int r.domains;
          r.fault;
          Printf.sprintf "%.1f" r.predicted_units;
          Printf.sprintf "%d/%d" r.none_completed r.tasks;
          Printf.sprintf "%.1f" r.steal_units;
          Printf.sprintf "%.1f" r.resched_units;
          Printf.sprintf "%.3f" r.resched_over_steal;
          string_of_int r.rescheds;
          Printf.sprintf "%.1f" r.real_resched_units;
          Printf.sprintf "%.1f" r.resched_latency_us;
        ])
    rows;
  Table.render table

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "workload,tasks,domains,fault,predicted_units,none_completed,steal_units,resched_units,resched_over_steal,rescheds,real_resched_units,resched_latency_us\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s,%g,%d,%g,%g,%g,%d,%g,%g\n" r.workload r.tasks
           r.domains r.fault r.predicted_units r.none_completed r.steal_units
           r.resched_units r.resched_over_steal r.rescheds r.real_resched_units
           r.resched_latency_us))
    rows;
  Buffer.contents buf

(* Inner JSON array (no surrounding object), so Runtime_real_exp can
   embed it as the "resched" field of BENCH_runtime.json. *)
let rows_json rows =
  (* Wall-clock-derived fields can be nan (e.g. the kill landed after
     the real run already finished); JSON has no nan, so emit null. *)
  let num x = if Float.is_finite x then Printf.sprintf "%g" x else "null" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"tasks\": %d, \"domains\": %d, \
            \"fault\": \"%s\", \"predicted_units\": %g, \"none_completed\": %d, \
            \"steal_units\": %g, \"resched_units\": %g, \"resched_over_steal\": \
            %g, \"rescheds\": %d, \"real_resched_units\": %s, \
            \"resched_latency_us\": %s}%s\n"
           (Regress.Json.escape r.workload)
           r.tasks r.domains
           (Regress.Json.escape r.fault)
           r.predicted_units r.none_completed r.steal_units r.resched_units
           r.resched_over_steal r.rescheds
           (num r.real_resched_units)
           (num r.resched_latency_us)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]";
  Buffer.contents buf
