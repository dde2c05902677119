open! Flb_taskgraph
open! Flb_platform

type frozen = { task : Taskgraph.task; proc : int; start : float; finish : float }

type t = {
  graph : Taskgraph.t;
  machine : Machine.t;
  frozen : frozen array;
  ready : float array;
  dead : bool array;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let make ?(dead = []) ?(ready = []) ?(frozen = []) graph machine =
  let n = Taskgraph.num_tasks graph in
  let p = Machine.num_procs machine in
  let dead_mask = Array.make p false in
  List.iter
    (fun d ->
      if d < 0 || d >= p then fail "Snapshot.make: dead processor %d out of range" d;
      dead_mask.(d) <- true)
    dead;
  if Array.for_all Fun.id dead_mask then
    fail "Snapshot.make: every processor is dead, nothing can run the frontier";
  let floors = Array.make p 0.0 in
  List.iter
    (fun (pr, time) ->
      if pr < 0 || pr >= p then fail "Snapshot.make: ready time for unknown processor %d" pr;
      if (not (Float.is_finite time)) || time < 0.0 then
        fail "Snapshot.make: bad ready time %g for processor %d" time pr;
      if time > floors.(pr) then floors.(pr) <- time)
    ready;
  let executed = Array.make n false in
  List.iter
    (fun f ->
      if f.task < 0 || f.task >= n then fail "Snapshot.make: frozen task %d out of range" f.task;
      if executed.(f.task) then fail "Snapshot.make: task %d frozen twice" f.task;
      if f.proc < 0 || f.proc >= p then
        fail "Snapshot.make: frozen task %d on unknown processor %d" f.task f.proc;
      if (not (Float.is_finite f.start)) || f.start < 0.0 then
        fail "Snapshot.make: frozen task %d has bad start %g" f.task f.start;
      if (not (Float.is_finite f.finish)) || f.finish < f.start then
        fail "Snapshot.make: frozen task %d has bad finish %g" f.task f.finish;
      executed.(f.task) <- true)
    frozen;
  (* The executed prefix must be closed under predecessors: a task only
     ran after every predecessor finished, so a frozen task with an
     unexecuted predecessor means the caller snapshotted inconsistent
     engine state. *)
  List.iter
    (fun f ->
      Taskgraph.iter_preds graph f.task (fun pred _ ->
          if not executed.(pred) then
            fail "Snapshot.make: frozen task %d depends on unexecuted task %d" f.task
              pred))
    frozen;
  { graph; machine; frozen = Array.of_list frozen; ready = floors; dead = dead_mask }

let frontier_size s = Taskgraph.num_tasks s.graph - Array.length s.frozen

let seed s =
  let sched = Schedule.create s.graph s.machine in
  Array.iteri (fun p d -> if d then Schedule.mask_proc sched p) s.dead;
  (* Frozen history goes in topologically, so every assignment sees its
     predecessors already placed; closure was checked in [make]. *)
  let n = Taskgraph.num_tasks s.graph in
  let by_task = Array.make n (-1) in
  Array.iteri (fun i f -> by_task.(f.task) <- i) s.frozen;
  Array.iter
    (fun t ->
      if by_task.(t) >= 0 then
        let f = s.frozen.(by_task.(t)) in
        Schedule.assign_frozen sched t ~proc:f.proc ~start:f.start ~finish:f.finish)
    (Topo.order s.graph);
  Array.iteri (fun p time -> Schedule.advance_prt sched p time) s.ready;
  sched
