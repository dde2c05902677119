open! Flb_taskgraph
open! Flb_platform

let run_into ?(probe = Flb_obs.Probe.null) sched =
  let g = Schedule.graph sched in
  Flb_obs.Probe.phase_begin probe Flb_obs.Probe.Phase.Priority;
  let slevel = Levels.blevel_comp_only g in
  Flb_obs.Probe.phase_end probe Flb_obs.Probe.Phase.Priority;
  let rule = List_common.earliest_proc_insertion sched in
  let select_proc sched t =
    Flb_obs.Probe.proc_queue_ops probe (Schedule.num_procs sched);
    rule sched t
  in
  List_common.run_into ~probe
    ~priority:(fun t -> -.slevel.(t))
    ~tie:float_of_int ~select_proc sched

let run ?probe g machine = run_into ?probe (Schedule.create g machine)

let schedule_length g machine = Schedule.makespan (run g machine)
