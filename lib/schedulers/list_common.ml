open! Flb_taskgraph
open! Flb_platform
module Flat_heap = Flb_heap.Flat_heap
module Probe = Flb_obs.Probe

let run_into ?(probe = Probe.null) ~priority ~tie ~select_proc sched =
  let g = Schedule.graph sched in
  let n = Taskgraph.num_tasks g in
  let ready = Flat_heap.create ~universe:n in
  let succ_off = Taskgraph.Csr.succ_offsets g in
  let succ_id = Taskgraph.Csr.succ_targets g in
  let enqueue t =
    Probe.task_queue_op probe;
    Probe.ready_added probe;
    Flat_heap.add ready ~elt:t ~primary:(priority t) ~secondary:(tie t)
  in
  (* On a fresh schedule this seeds exactly the entry tasks; on one
     seeded with frozen history it seeds the live frontier. *)
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
      let proc, start = select_proc sched t in
      Probe.phase_end probe Probe.Phase.Selection;
      Probe.phase_begin probe Probe.Phase.Assignment;
      Schedule.assign sched t ~proc ~start;
      Probe.phase_end probe Probe.Phase.Assignment;
      Probe.phase_begin probe Probe.Phase.Queue;
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

let run ?probe ~priority ~tie ~select_proc g machine =
  run_into ?probe ~priority ~tie ~select_proc (Schedule.create g machine)

let earliest_proc sched t = Schedule.min_est_over_procs sched t

let earliest_proc_insertion seeded =
  let floors = Array.init (Schedule.num_procs seeded) (Schedule.prt seeded) in
  fun sched t ->
    let g = Schedule.graph sched in
    let comp = Taskgraph.comp g t in
    let best = ref (-1, Float.infinity) in
    for p = 0 to Schedule.num_procs sched - 1 do
      if Schedule.proc_alive sched p then begin
      let emt = Schedule.emt sched t ~proc:p in
      (* Scan the processor's timeline (kept sorted by start since every
         assignment appends at the current end or in a gap) for the first
         gap after [emt] that fits the task; fall back to the end. *)
      let tasks =
        List.sort
          (fun a b -> Float.compare (Schedule.start_time sched a) (Schedule.start_time sched b))
          (Schedule.tasks_on sched p)
      in
      let rec find_slot cursor = function
        | [] -> Float.max cursor emt
        | u :: rest ->
          let gap_start = Float.max cursor emt in
          if gap_start +. comp <= Schedule.start_time sched u then gap_start
          else find_slot (Float.max cursor (Schedule.finish_time sched u)) rest
      in
      let start = find_slot floors.(p) tasks in
      if start < snd !best then best := (p, start)
      end
    done;
    !best

let two_proc_rule sched t =
  let idle_first =
    let best = ref (-1) in
    for p = 0 to Schedule.num_procs sched - 1 do
      if
        Schedule.proc_alive sched p
        && (!best < 0 || Schedule.prt sched p < Schedule.prt sched !best)
      then best := p
    done;
    !best
  in
  (* A dead enabling processor cannot take new work: fall back to the
     idle-earliest live processor alone. *)
  let candidates =
    match Schedule.enabling_proc sched t with
    | Some ep when Schedule.proc_alive sched ep && ep <> idle_first -> [ ep; idle_first ]
    | Some ep when Schedule.proc_alive sched ep -> [ ep ]
    | _ -> [ idle_first ]
  in
  List.fold_left
    (fun (bp, bs) p ->
      let s = Schedule.est sched t ~proc:p in
      if s < bs then (p, s) else (bp, bs))
    (List.hd candidates, Schedule.est sched t ~proc:(List.hd candidates))
    (List.tl candidates)
