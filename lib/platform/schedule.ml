open! Flb_taskgraph

module Vec = Flb_prelude.Vec

type task = Taskgraph.task

type t = {
  graph : Taskgraph.t;
  machine : Machine.t;
  proc : int array; (* -1 while unscheduled *)
  start : float array;
  finish : float array;
  prt : float array;
  on_proc : task Vec.t array; (* assignment order per processor *)
  unscheduled_preds : int array; (* readiness counter *)
  mutable num_scheduled : int;
  (* CSR adjacency of [graph], cached so the per-assignment edge sweeps
     and the timing quantities (LMT/EMT/EP) stream flat arrays without
     a call per edge. *)
  succ_off : int array;
  succ_id : int array;
  pred_off : int array;
  pred_id : int array;
  pred_w : float array;
  (* Float scratch for the fused EST sweep: a mutable float field in this
     mixed record would box on every write, a one-slot float array does
     not. *)
  scratch : float array;
  (* Fault-time rescheduling: masked (dead) processors never receive new
     work, frozen tasks carry measured rather than modelled finish
     times. Both arrays are all-false for ordinary compile-time runs. *)
  alive : bool array;
  frozen : bool array;
}

let create graph machine =
  let n = Taskgraph.num_tasks graph in
  let p = Machine.num_procs machine in
  {
    graph;
    machine;
    proc = Array.make n (-1);
    start = Array.make n 0.0;
    finish = Array.make n 0.0;
    prt = Array.make p 0.0;
    on_proc = Array.init p (fun _ -> Vec.create ());
    unscheduled_preds =
      (let off = Taskgraph.Csr.pred_offsets graph in
       Array.init n (fun t -> off.(t + 1) - off.(t)));
    num_scheduled = 0;
    succ_off = Taskgraph.Csr.succ_offsets graph;
    succ_id = Taskgraph.Csr.succ_targets graph;
    pred_off = Taskgraph.Csr.pred_offsets graph;
    pred_id = Taskgraph.Csr.pred_sources graph;
    pred_w = Taskgraph.Csr.pred_weights graph;
    scratch = Array.make 1 0.0;
    alive = Array.make p true;
    frozen = Array.make n false;
  }

let graph s = s.graph

let machine s = s.machine

let num_procs s = Machine.num_procs s.machine

let check_task s t op =
  if t < 0 || t >= Taskgraph.num_tasks s.graph then
    invalid_arg (Printf.sprintf "Schedule.%s: unknown task %d" op t)

let is_scheduled s t =
  check_task s t "is_scheduled";
  s.proc.(t) >= 0

let is_ready s t =
  check_task s t "is_ready";
  s.proc.(t) < 0 && s.unscheduled_preds.(t) = 0

let ready_tasks s =
  List.filter (is_ready s) (List.init (Taskgraph.num_tasks s.graph) Fun.id)

let num_scheduled s = s.num_scheduled

let is_complete s = s.num_scheduled = Taskgraph.num_tasks s.graph

let require_scheduled s t op =
  check_task s t op;
  if s.proc.(t) < 0 then
    invalid_arg (Printf.sprintf "Schedule.%s: task %d not scheduled" op t)

let proc s t =
  require_scheduled s t "proc";
  s.proc.(t)

let start_time s t =
  require_scheduled s t "start_time";
  s.start.(t)

let finish_time s t =
  require_scheduled s t "finish_time";
  s.finish.(t)

let check_proc s p op =
  if p < 0 || p >= num_procs s then
    invalid_arg (Printf.sprintf "Schedule.%s: unknown processor %d" op p)

let prt s p =
  check_proc s p "prt";
  s.prt.(p)

let mask_proc s p =
  check_proc s p "mask_proc";
  s.alive.(p) <- false

let proc_alive s p =
  check_proc s p "proc_alive";
  s.alive.(p)

let num_alive s =
  let acc = ref 0 in
  Array.iter (fun a -> if a then incr acc) s.alive;
  !acc

let advance_prt s p time =
  check_proc s p "advance_prt";
  if (not (Float.is_finite time)) || time < 0.0 then
    invalid_arg (Printf.sprintf "Schedule.advance_prt: bad time %g" time);
  if time > s.prt.(p) then s.prt.(p) <- time

let is_frozen s t =
  check_task s t "is_frozen";
  s.frozen.(t)

let tasks_on s p =
  check_proc s p "tasks_on";
  Vec.to_list s.on_proc.(p)

let place s t ~proc:p ~start ~finish =
  s.proc.(t) <- p;
  s.start.(t) <- start;
  s.finish.(t) <- finish;
  if finish > s.prt.(p) then s.prt.(p) <- finish;
  Vec.push s.on_proc.(p) t;
  s.num_scheduled <- s.num_scheduled + 1;
  for i = s.succ_off.(t) to s.succ_off.(t + 1) - 1 do
    let succ = s.succ_id.(i) in
    s.unscheduled_preds.(succ) <- s.unscheduled_preds.(succ) - 1
  done

let assign s t ~proc:p ~start =
  check_task s t "assign";
  check_proc s p "assign";
  if not s.alive.(p) then
    invalid_arg (Printf.sprintf "Schedule.assign: processor %d is masked out" p);
  if s.proc.(t) >= 0 then
    invalid_arg (Printf.sprintf "Schedule.assign: task %d already scheduled" t);
  if s.unscheduled_preds.(t) > 0 then
    invalid_arg (Printf.sprintf "Schedule.assign: task %d is not ready" t);
  if (not (Float.is_finite start)) || start < 0.0 then
    invalid_arg (Printf.sprintf "Schedule.assign: bad start time %g" start);
  place s t ~proc:p ~start ~finish:(start +. Taskgraph.comp s.graph t)

let assign_frozen s t ~proc:p ~start ~finish =
  check_task s t "assign_frozen";
  check_proc s p "assign_frozen";
  if s.proc.(t) >= 0 then
    invalid_arg (Printf.sprintf "Schedule.assign_frozen: task %d already scheduled" t);
  if s.unscheduled_preds.(t) > 0 then
    invalid_arg (Printf.sprintf "Schedule.assign_frozen: task %d is not ready" t);
  if (not (Float.is_finite start)) || start < 0.0 then
    invalid_arg (Printf.sprintf "Schedule.assign_frozen: bad start time %g" start);
  if (not (Float.is_finite finish)) || finish < start then
    invalid_arg (Printf.sprintf "Schedule.assign_frozen: bad finish time %g" finish);
  s.frozen.(t) <- true;
  place s t ~proc:p ~start ~finish

let require_preds_scheduled s t op =
  check_task s t op;
  if s.unscheduled_preds.(t) > 0 then
    invalid_arg (Printf.sprintf "Schedule.%s: task %d has unscheduled predecessors" op t)

let lmt s t =
  require_preds_scheduled s t "lmt";
  let acc = ref 0.0 in
  for i = s.pred_off.(t) to s.pred_off.(t + 1) - 1 do
    let arrival = s.finish.(s.pred_id.(i)) +. s.pred_w.(i) in
    if arrival > !acc then acc := arrival
  done;
  !acc

(* Enabling processor: processor of a predecessor realizing LMT. Ties go to
   the lowest processor id (deterministic, and the choice matching the
   paper's Table 1 trace). [-1] for entry tasks; the allocation-free
   primitive behind {!enabling_proc}. *)
let enabling_proc_id s t =
  require_preds_scheduled s t "enabling_proc_id";
  let best_proc = ref (-1) in
  let best_arrival = ref Float.neg_infinity in
  for i = s.pred_off.(t) to s.pred_off.(t + 1) - 1 do
    let arrival = s.finish.(s.pred_id.(i)) +. s.pred_w.(i) in
    let pp = s.proc.(s.pred_id.(i)) in
    if
      !best_proc < 0 || arrival > !best_arrival
      || (arrival = !best_arrival && pp < !best_proc)
    then begin
      best_proc := pp;
      best_arrival := arrival
    end
  done;
  !best_proc

let enabling_proc s t =
  match enabling_proc_id s t with -1 -> None | p -> Some p

let emt s t ~proc:p =
  require_preds_scheduled s t "emt";
  check_proc s p "emt";
  let acc = ref 0.0 in
  for i = s.pred_off.(t) to s.pred_off.(t + 1) - 1 do
    let pred = s.pred_id.(i) in
    let delay = Machine.comm_time s.machine ~src:s.proc.(pred) ~dst:p ~cost:s.pred_w.(i) in
    let arrival = s.finish.(pred) +. delay in
    if arrival > !acc then acc := arrival
  done;
  !acc

let est s t ~proc:p = Float.max (emt s t ~proc:p) s.prt.(p)

let is_ep_type s t =
  match enabling_proc_id s t with
  | -1 -> false
  | ep -> lmt s t >= s.prt.(ep)

(* The fused EST sweep: for each processor, the EMT max-fold runs inline
   over the CSR predecessor arrays with [Machine.hops] (an int, so no
   boxed float crosses a function boundary), and both the per-processor
   accumulator and the running minimum live in float arrays. ETF calls
   this once per (ready task, iteration) pair — the single hottest loop
   in the repository — so it must not allocate. *)
let min_est_into s t ~dest =
  require_preds_scheduled s t "min_est_into";
  let m = s.machine in
  let best_p = ref (-1) in
  for p = 0 to num_procs s - 1 do
    if s.alive.(p) then begin
      s.scratch.(0) <- 0.0;
      for i = s.pred_off.(t) to s.pred_off.(t + 1) - 1 do
        let pred = s.pred_id.(i) in
        let h = Machine.hops m ~src:s.proc.(pred) ~dst:p in
        let arrival = s.finish.(pred) +. (s.pred_w.(i) *. float_of_int h) in
        if arrival > s.scratch.(0) then s.scratch.(0) <- arrival
      done;
      let e = if s.scratch.(0) > s.prt.(p) then s.scratch.(0) else s.prt.(p) in
      if !best_p < 0 || e < dest.(0) then begin
        best_p := p;
        dest.(0) <- e
      end
    end
  done;
  if !best_p < 0 then invalid_arg "Schedule.min_est_into: every processor is masked";
  !best_p

let min_est_over_procs s t =
  let dest = Array.make 1 0.0 in
  let p = min_est_into s t ~dest in
  (p, dest.(0))

let makespan s = Array.fold_left Float.max 0.0 s.prt

(* Claimed start-time order, so insertion-based schedules replay their
   intended interleaving. Zero-duration tasks make bare start times
   ambiguous; finish time and topological position break the ties
   dependency-consistently. *)
let execution_order s =
  let n = Taskgraph.num_tasks s.graph in
  for t = 0 to n - 1 do
    if s.proc.(t) < 0 then
      invalid_arg (Printf.sprintf "Schedule.execution_order: task %d unscheduled" t)
  done;
  let topo_position = Array.make n 0 in
  Array.iteri (fun i t -> topo_position.(t) <- i) (Topo.order s.graph);
  Array.init (num_procs s) (fun p ->
      List.sort
        (fun a b ->
          compare
            (s.start.(a), s.finish.(a), topo_position.(a))
            (s.start.(b), s.finish.(b), topo_position.(b)))
        (tasks_on s p))

let validate s =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Taskgraph.num_tasks s.graph in
  for t = 0 to n - 1 do
    if s.proc.(t) < 0 then err "task %d is unscheduled" t
    else begin
      (* Frozen tasks carry measured finish times, which legitimately
         differ from start + comp (slowdown faults, spin-work noise). *)
      if (not s.frozen.(t)) && s.finish.(t) <> s.start.(t) +. Taskgraph.comp s.graph t
      then err "task %d: finish <> start + comp" t;
      if s.start.(t) < 0.0 then err "task %d starts before time 0" t
    end
  done;
  if !errors = [] then begin
    (* Dependence feasibility. Edges into frozen tasks are history — the
       runtime already executed them, modelled arrival times no longer
       bind — but edges from frozen into newly scheduled tasks must hold. *)
    Taskgraph.iter_edges
      (fun src dst w ->
        if not s.frozen.(dst) then
          let delay =
            Machine.comm_time s.machine ~src:s.proc.(src) ~dst:s.proc.(dst) ~cost:w
          in
          if s.start.(dst) < s.finish.(src) +. delay -. 1e-9 then
            err "edge %d->%d violated: start %g < arrival %g" src dst s.start.(dst)
              (s.finish.(src) +. delay))
      s.graph;
    (* Processor exclusivity: sweep each processor's tasks in (start,
       finish) order and flag any positive-length task beginning before
       the busy frontier. Zero-duration tasks occupy no time and cannot
       conflict; overlap among frozen tasks is the runtime's business,
       but a new task must never start under the frontier. *)
    for p = 0 to num_procs s - 1 do
      let tasks = Array.of_list (tasks_on s p) in
      Array.sort
        (fun a b -> compare (s.start.(a), s.finish.(a)) (s.start.(b), s.finish.(b)))
        tasks;
      let frontier = ref neg_infinity in
      Array.iter
        (fun t ->
          if
            (not s.frozen.(t))
            && s.finish.(t) > s.start.(t)
            && s.start.(t) < !frontier -. 1e-9
          then err "task %d overlaps earlier work on processor %d" t p;
          if s.finish.(t) > !frontier then frontier := s.finish.(t))
        tasks
    done
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp ppf s =
  Format.fprintf ppf "schedule: %d/%d tasks placed, makespan %g" s.num_scheduled
    (Taskgraph.num_tasks s.graph) (makespan s)
