open! Flb_taskgraph
open! Flb_platform
module Flat_heap = Flb_heap.Flat_heap
module Probe = Flb_obs.Probe

type tie_break = Bottom_level | Task_id

type options = { tie_break : tie_break; prefer_non_ep_on_tie : bool }

let default_options = { tie_break = Bottom_level; prefer_non_ep_on_tie = true }

type candidate = { task : Taskgraph.task; proc : int; est : float }

type ep_entry = {
  task : Taskgraph.task;
  emt : float;
  lmt : float;
  blevel : float;
}

type iteration = {
  index : int;
  ep_lists : (int * ep_entry list) list;
  non_ep_list : (Taskgraph.task * float) list;
  ep_candidate : candidate option;
  non_ep_candidate : candidate option;
  chosen : candidate;
}

type observer = Schedule.t -> iteration -> unit

(* Queue keys are (value, tie-break) pairs ordered lexicographically, with
   the secondary component holding the negated bottom level or the task id.
   Flat_heap stores both components in unboxed float arrays and breaks
   remaining ties by element id, so the order is total, deterministic, and
   identical to the tests' reference Indexed_heap over (float * float) keys —
   without a boxed tuple per push or a polymorphic compare per sift. *)
type state = {
  (* Operation counters and (optional) phase timings on the shared
     Flb_obs.Probe schema; [Probe.null] unless the caller passed one. *)
  probe : Probe.t;
  graph : Taskgraph.t;
  sched : Schedule.t;
  options : options;
  blevel : float array;
  (* Per ready task: timing facts computed once when it becomes ready
     (finish times of predecessors never change afterwards). *)
  lmt : float array;
  ep : int array; (* enabling processor, -1 for entry tasks *)
  emt_on_ep : float array;
  (* The paper's queues. An EP task sits only in its enabling processor's
     two queues, so each per-processor set is one heap family sharing a
     size-V index: O(V + P) words in all. *)
  emt_ep : Flat_heap.t array; (* per proc: EP tasks by (EMT, tb) *)
  lmt_ep : Flat_heap.t array; (* per proc: EP tasks by (LMT, tb) *)
  non_ep : Flat_heap.t; (* by (LMT, tb) *)
  active_procs : Flat_heap.t; (* by (min EST of enabled EP task, tb) *)
  all_procs : Flat_heap.t; (* by (PRT, 0) *)
  (* CSR successors of [graph], for the ready-set update sweep. *)
  succ_off : int array;
  succ_id : int array;
  (* Selection scratch. The winning (task, proc, EST) of each iteration is
     written here instead of into a fresh [candidate] record; the EST lives
     in a one-element float array because a mutable float field in this
     mixed record would box on every write. *)
  mutable sel_task : int;
  mutable sel_proc : int;
  sel_est : float array;
}

let tie_value st t =
  match st.options.tie_break with
  | Bottom_level -> -.st.blevel.(t)
  | Task_id -> float_of_int t

let create_state ~probe options sched =
  let graph = Schedule.graph sched in
  let n = Taskgraph.num_tasks graph in
  let p = Schedule.num_procs sched in
  Probe.phase_begin probe Probe.Phase.Priority;
  let blevel = Levels.blevel graph in
  Probe.phase_end probe Probe.Phase.Priority;
  {
    probe;
    graph;
    sched;
    options;
    blevel;
    lmt = Array.make n 0.0;
    ep = Array.make n (-1);
    emt_on_ep = Array.make n 0.0;
    emt_ep = Flat_heap.create_family ~universe:n ~count:p;
    lmt_ep = Flat_heap.create_family ~universe:n ~count:p;
    non_ep = Flat_heap.create ~universe:n;
    active_procs = Flat_heap.create ~universe:p;
    all_procs = Flat_heap.create ~universe:p;
    succ_off = Taskgraph.Csr.succ_offsets graph;
    succ_id = Taskgraph.Csr.succ_targets graph;
    sel_task = -1;
    sel_proc = -1;
    sel_est = Array.make 1 0.0;
  }

(* Minimum EST among the EP tasks enabled by [p]: the head of the EMT
   queue against the processor's ready time (O(1), as in the paper). *)
let refresh_active st p =
  Probe.proc_queue_op st.probe;
  let head = Flat_heap.peek st.emt_ep.(p) in
  if head < 0 then Flat_heap.remove st.active_procs p
  else begin
    let emt = Flat_heap.primary st.emt_ep.(p) head in
    let prt = Schedule.prt st.sched p in
    let est = if emt > prt then emt else prt in
    Flat_heap.update st.active_procs ~elt:p ~primary:est
      ~secondary:(tie_value st head)
  end

(* Classify a freshly ready task into the EP or non-EP queues. *)
let enqueue_ready st t =
  Probe.ready_added st.probe;
  let tb = tie_value st t in
  st.lmt.(t) <- Schedule.lmt st.sched t;
  let ep = Schedule.enabling_proc_id st.sched t in
  (* A dead enabling processor cannot start the task at all: treat it as
     non-EP so it competes through the all-procs (live) queue. Its EST
     lower bound max(LMT, PRT) stays valid — EMT <= LMT on any
     processor. Only seeded (fault-recovery) schedules mask procs. *)
  let ep = if ep >= 0 && not (Schedule.proc_alive st.sched ep) then -1 else ep in
  st.ep.(t) <- ep;
  if ep < 0 then begin
    Probe.task_queue_op st.probe;
    Flat_heap.add st.non_ep ~elt:t ~primary:st.lmt.(t) ~secondary:tb
  end
  else begin
    st.emt_on_ep.(t) <- Schedule.emt st.sched t ~proc:ep;
    if st.lmt.(t) < Schedule.prt st.sched ep then begin
      (* Non-EP type: the enabling processor is already idle when the last
         message arrives. *)
      Probe.task_queue_op st.probe;
      Flat_heap.add st.non_ep ~elt:t ~primary:st.lmt.(t) ~secondary:tb
    end
    else begin
      Probe.task_queue_ops st.probe 2;
      Flat_heap.add st.emt_ep.(ep) ~elt:t ~primary:st.emt_on_ep.(t) ~secondary:tb;
      Flat_heap.add st.lmt_ep.(ep) ~elt:t ~primary:st.lmt.(t) ~secondary:tb;
      refresh_active st ep
    end
  end

(* The paper's UpdateTaskLists: after [p]'s ready time advanced, demote the
   EP tasks whose LMT fell below it. The LMT queue yields them cheapest
   first. *)
let demote_stale_ep_tasks st p =
  let prt = Schedule.prt st.sched p in
  let q = st.lmt_ep.(p) in
  let continue = ref true in
  while !continue do
    let t = Flat_heap.peek q in
    if t < 0 then continue := false
    else begin
      let lmt = Flat_heap.primary q t in
      if lmt < prt then begin
        let tb = Flat_heap.secondary q t in
        Probe.demotion st.probe;
        Probe.task_queue_ops st.probe 3;
        Flat_heap.remove q t;
        Flat_heap.remove st.emt_ep.(p) t;
        Flat_heap.add st.non_ep ~elt:t ~primary:lmt ~secondary:tb
      end
      else continue := false
    end
  done

(* Theorem 3: the winner is the better of two heads. [choose] writes it
   into the selection scratch; the [candidate] views below exist for the
   observer snapshot only. *)
let choose st =
  let ep_p = Flat_heap.peek st.active_procs in
  let ne_t = Flat_heap.peek st.non_ep in
  if ne_t < 0 then begin
    (* EP candidate only; the ready set is never empty mid-run. *)
    st.sel_task <- Flat_heap.peek st.emt_ep.(ep_p);
    st.sel_proc <- ep_p;
    st.sel_est.(0) <- Flat_heap.primary st.active_procs ep_p
  end
  else begin
    let ne_p = Flat_heap.peek st.all_procs in
    let lmt = Flat_heap.primary st.non_ep ne_t in
    let prt = Flat_heap.primary st.all_procs ne_p in
    let ne_est = if lmt > prt then lmt else prt in
    let take_ep =
      ep_p >= 0
      &&
      let ep_est = Flat_heap.primary st.active_procs ep_p in
      if ep_est < ne_est then true
      else if ep_est > ne_est then false
      else not st.options.prefer_non_ep_on_tie
    in
    if take_ep then begin
      st.sel_task <- Flat_heap.peek st.emt_ep.(ep_p);
      st.sel_proc <- ep_p;
      st.sel_est.(0) <- Flat_heap.primary st.active_procs ep_p
    end
    else begin
      st.sel_task <- ne_t;
      st.sel_proc <- ne_p;
      st.sel_est.(0) <- ne_est
    end
  end

(* Observer-only views; never called on the probe-less hot path. *)
let ep_candidate st =
  match Flat_heap.peek st.active_procs with
  | -1 -> None
  | p ->
    let t = Flat_heap.peek st.emt_ep.(p) in
    Some { task = t; proc = p; est = Flat_heap.primary st.active_procs p }

let non_ep_candidate st =
  match Flat_heap.peek st.non_ep with
  | -1 -> None
  | t ->
    let p = Flat_heap.peek st.all_procs in
    let est =
      Float.max (Flat_heap.primary st.non_ep t) (Flat_heap.primary st.all_procs p)
    in
    Some { task = t; proc = p; est }

let snapshot st index ~chosen =
  let ep_lists = ref [] in
  for p = Array.length st.emt_ep - 1 downto 0 do
    let entries =
      List.map
        (fun (t, _) ->
          { task = t; emt = st.emt_on_ep.(t); lmt = st.lmt.(t); blevel = st.blevel.(t) })
        (Flat_heap.to_sorted_list st.emt_ep.(p))
    in
    if entries <> [] then ep_lists := (p, entries) :: !ep_lists
  done;
  let non_ep_list =
    List.map (fun (t, _) -> (t, st.lmt.(t))) (Flat_heap.to_sorted_list st.non_ep)
  in
  {
    index;
    ep_lists = !ep_lists;
    non_ep_list;
    ep_candidate = ep_candidate st;
    non_ep_candidate = non_ep_candidate st;
    chosen;
  }

let commit st =
  let t = st.sel_task and p = st.sel_proc in
  Probe.ready_removed st.probe;
  Probe.phase_begin st.probe Probe.Phase.Queue;
  (* Remove the winner from whichever queues hold it. *)
  if Flat_heap.mem st.non_ep t then begin
    Probe.task_queue_op st.probe;
    Flat_heap.remove st.non_ep t
  end
  else begin
    let ep = st.ep.(t) in
    Probe.task_queue_ops st.probe 2;
    Flat_heap.remove st.emt_ep.(ep) t;
    Flat_heap.remove st.lmt_ep.(ep) t
  end;
  Probe.phase_end st.probe Probe.Phase.Queue;
  (* On the paper's uniform machine the queue-derived EST is exact; on a
     non-uniform topology (mesh extension) it is only an estimate, so
     recompute the real earliest start there to keep schedules feasible. *)
  let start =
    if Machine.is_uniform (Schedule.machine st.sched) then st.sel_est.(0)
    else Schedule.est st.sched t ~proc:p
  in
  Probe.phase_begin st.probe Probe.Phase.Assignment;
  Schedule.assign st.sched t ~proc:p ~start;
  Probe.phase_end st.probe Probe.Phase.Assignment;
  Probe.phase_begin st.probe Probe.Phase.Queue;
  (* UpdateTaskLists + UpdateProcLists for the destination processor. *)
  demote_stale_ep_tasks st p;
  Probe.proc_queue_op st.probe;
  Flat_heap.update st.all_procs ~elt:p ~primary:(Schedule.prt st.sched p)
    ~secondary:0.0;
  refresh_active st p;
  (* UpdateReadyTasks: successors that just became ready enter the queues. *)
  for i = st.succ_off.(t) to st.succ_off.(t + 1) - 1 do
    let succ = st.succ_id.(i) in
    if Schedule.is_ready st.sched succ then enqueue_ready st succ
  done;
  Probe.phase_end st.probe Probe.Phase.Queue

let run_state_into ?(options = default_options) ?observer ?(probe = Probe.null) sched =
  let st = create_state ~probe options sched in
  let graph = Schedule.graph sched in
  Probe.phase_begin probe Probe.Phase.Queue;
  (* Only live processors enter the all-procs queue; on a seeded
     schedule their ready times carry the frozen history and fault-time
     floors. *)
  for p = 0 to Schedule.num_procs sched - 1 do
    if Schedule.proc_alive sched p then
      Flat_heap.add st.all_procs ~elt:p ~primary:(Schedule.prt sched p)
        ~secondary:0.0
  done;
  let n = Taskgraph.num_tasks graph in
  for t = 0 to n - 1 do
    if Schedule.is_ready sched t then enqueue_ready st t
  done;
  Probe.phase_end probe Probe.Phase.Queue;
  let remaining = n - Schedule.num_scheduled sched in
  for index = 0 to remaining - 1 do
    Probe.iteration probe;
    Probe.phase_begin probe Probe.Phase.Selection;
    choose st;
    Probe.phase_end probe Probe.Phase.Selection;
    (match observer with
    | Some f ->
      let chosen = { task = st.sel_task; proc = st.sel_proc; est = st.sel_est.(0) } in
      f st.sched (snapshot st index ~chosen)
    | None -> ());
    commit st
  done;
  st

let run_state ?options ?observer ?probe graph machine =
  run_state_into ?options ?observer ?probe (Schedule.create graph machine)

let run ?options ?observer ?probe graph machine =
  (run_state ?options ?observer ?probe graph machine).sched

let run_into ?options ?observer ?probe sched =
  (run_state_into ?options ?observer ?probe sched).sched

let schedule_length ?options graph machine =
  Schedule.makespan (run ?options graph machine)
