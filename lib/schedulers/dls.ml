open! Flb_taskgraph
open! Flb_platform
module Probe = Flb_obs.Probe

let run_into ?(probe = Probe.null) sched =
  let g = Schedule.graph sched in
  Probe.phase_begin probe Probe.Phase.Priority;
  let slevel = Levels.blevel_comp_only g in
  Probe.phase_end probe Probe.Phase.Priority;
  let n = Taskgraph.num_tasks g in
  let succ_off = Taskgraph.Csr.succ_offsets g in
  let succ_id = Taskgraph.Csr.succ_targets g in
  (* Unordered ready bag with swap-removal; the dynamic-level predicate
     (greatest DL, then lowest task id, then lowest processor id) is a
     strict total order, so bag order cannot affect the result. *)
  let ready = Array.make (max 1 n) 0 in
  let ready_len = ref 0 in
  let push t =
    ready.(!ready_len) <- t;
    incr ready_len
  in
  for t = 0 to n - 1 do
    if Schedule.is_ready sched t then begin
      Probe.ready_added probe;
      push t
    end
  done;
  let best_est = Array.make 1 0.0 in
  let best_dl = Array.make 1 0.0 in
  for _ = 1 to n - Schedule.num_scheduled sched do
    Probe.iteration probe;
    Probe.phase_begin probe Probe.Phase.Selection;
    let best_i = ref (-1) and best_t = ref (-1) and best_p = ref (-1) in
    for i = 0 to !ready_len - 1 do
      let t = ready.(i) in
      for p = 0 to Schedule.num_procs sched - 1 do
        if Schedule.proc_alive sched p then begin
          Probe.proc_queue_op probe;
          let est = Schedule.est sched t ~proc:p in
          let dl = slevel.(t) -. est in
          let better =
            !best_t < 0 || dl > best_dl.(0) || (dl = best_dl.(0) && t < !best_t)
          in
          if better then begin
            best_i := i;
            best_t := t;
            best_p := p;
            best_est.(0) <- est;
            best_dl.(0) <- dl
          end
        end
      done
    done;
    Probe.phase_end probe Probe.Phase.Selection;
    (* A DAG always has a ready task while incomplete. *)
    if !best_t < 0 then assert false;
    Probe.phase_begin probe Probe.Phase.Assignment;
    Schedule.assign sched !best_t ~proc:!best_p ~start:best_est.(0);
    Probe.phase_end probe Probe.Phase.Assignment;
    Probe.phase_begin probe Probe.Phase.Queue;
    Probe.task_queue_op probe;
    Probe.ready_removed probe;
    decr ready_len;
    ready.(!best_i) <- ready.(!ready_len);
    let t = !best_t in
    for i = succ_off.(t) to succ_off.(t + 1) - 1 do
      let succ = succ_id.(i) in
      if Schedule.is_ready sched succ then begin
        Probe.task_queue_op probe;
        Probe.ready_added probe;
        push succ
      end
    done;
    Probe.phase_end probe Probe.Phase.Queue
  done;
  sched

let run ?probe g machine = run_into ?probe (Schedule.create g machine)
