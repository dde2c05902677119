open! Flb_taskgraph
open! Flb_platform
module Flat_heap = Flb_heap.Flat_heap
module Probe = Flb_obs.Probe

let run_into ?(probe = Probe.null) sched =
  let g = Schedule.graph sched in
  Probe.phase_begin probe Probe.Phase.Priority;
  let blevel = Levels.blevel g in
  Probe.phase_end probe Probe.Phase.Priority;
  let n = Taskgraph.num_tasks g in
  let p = Schedule.num_procs sched in
  let succ_off = Taskgraph.Csr.succ_offsets g in
  let succ_id = Taskgraph.Csr.succ_targets g in
  let ready = Flat_heap.create ~universe:n in
  (* Processors by ready time, so the idle-earliest one is the head.
     Masked (dead) processors never enter the heap. *)
  let procs = Flat_heap.create ~universe:p in
  for pr = 0 to p - 1 do
    if Schedule.proc_alive sched pr then begin
      Probe.proc_queue_op probe;
      Flat_heap.add procs ~elt:pr ~primary:(Schedule.prt sched pr) ~secondary:0.0
    end
  done;
  let enqueue t =
    Probe.task_queue_op probe;
    Probe.ready_added probe;
    Flat_heap.add ready ~elt:t ~primary:(-.blevel.(t)) ~secondary:(float_of_int t)
  in
  Probe.phase_begin probe Probe.Phase.Queue;
  for t = 0 to n - 1 do
    if Schedule.is_ready sched t then enqueue t
  done;
  Probe.phase_end probe Probe.Phase.Queue;
  let rec loop () =
    let t = Flat_heap.pop ready in
    if t >= 0 then begin
      Probe.iteration probe;
      Probe.task_queue_op probe;
      Probe.ready_removed probe;
      Probe.phase_begin probe Probe.Phase.Selection;
      let idle_first = Flat_heap.peek procs in
      Probe.proc_queue_op probe;
      let est_idle = Schedule.est sched t ~proc:idle_first in
      let ep = Schedule.enabling_proc_id sched t in
      let use_ep =
        ep >= 0 && Schedule.proc_alive sched ep
        && Schedule.est sched t ~proc:ep <= est_idle
      in
      (* Ties go to the enabling processor: same start, no message. *)
      let proc = if use_ep then ep else idle_first in
      let start = if use_ep then Schedule.est sched t ~proc:ep else est_idle in
      Probe.phase_end probe Probe.Phase.Selection;
      Probe.phase_begin probe Probe.Phase.Assignment;
      Schedule.assign sched t ~proc ~start;
      Probe.phase_end probe Probe.Phase.Assignment;
      Probe.phase_begin probe Probe.Phase.Queue;
      Probe.proc_queue_op probe;
      Flat_heap.update procs ~elt:proc ~primary:(Schedule.prt sched proc)
        ~secondary:0.0;
      for i = succ_off.(t) to succ_off.(t + 1) - 1 do
        let succ = succ_id.(i) in
        if Schedule.is_ready sched succ then enqueue succ
      done;
      Probe.phase_end probe Probe.Phase.Queue;
      loop ()
    end
  in
  loop ();
  sched

let run ?probe g machine = run_into ?probe (Schedule.create g machine)
