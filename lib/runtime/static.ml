open! Flb_taskgraph
open! Flb_platform
module State = Engine.State
module Snapshot = Flb_reschedule.Snapshot
module Registry = Flb_reschedule.Registry
module Reschedule = Flb_reschedule.Reschedule
module Metrics = Flb_obs.Metrics
module Flight = Flb_obs.Flight_recorder

let check_recover = function
  | Engine.Resched algo when Option.is_none (Registry.find_resumable algo) ->
    invalid_arg
      (Printf.sprintf "unknown reschedule algorithm %S (available: %s)" algo
         (String.concat ", " (Registry.names Registry.resumable_set)))
  | Engine.Resched _ | Engine.Steal_queues | Engine.No_recovery -> ()

(* A task downstream of an unexecuted task can never have executed, so
   the sweep never dooms finished work. *)
let doom g ~doomed roots =
  let newly = ref 0 in
  let stack = ref [] in
  let push t =
    if not doomed.(t) then begin
      doomed.(t) <- true;
      incr newly;
      stack := t :: !stack
    end
  in
  List.iter push roots;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | t :: rest ->
      stack := rest;
      Taskgraph.iter_succs g t (fun s _ -> push s)
  done;
  !newly

let replan ~algo snap =
  let sched = Reschedule.run ~algo snap in
  Array.map
    (List.filter (fun t -> not (Schedule.is_frozen sched t)))
    (Schedule.execution_order sched)

let run ?(config = Engine.default_config) sched =
  let g = Schedule.graph sched in
  let procs = Schedule.num_procs sched in
  if config.domains <> procs then
    invalid_arg
      (Printf.sprintf "Static.run: config has %d domains but the schedule uses %d"
         config.domains procs);
  check_recover config.recover;
  let queues = Array.map Deque.of_list (Schedule.execution_order sched) in
  let st = State.create config ~engine:"static" ~predicted:(Schedule.makespan sched) g in
  let n = st.State.total in
  (* Death reactions (No_recovery's abandonment sweep, Resched's frontier
     reschedule) run on whichever survivor wins [coord_lock] after
     noticing [deaths] moved past [deaths_handled]. *)
  let coord_lock = Mutex.create () in
  let deaths_handled = Atomic.make 0 in
  (* No_recovery: tasks that can never execute because they sit in (or
     depend on) a dead domain's queue. Counting them keeps the
     completion condition reachable. *)
  let doomed = Array.make n false in
  let abandoned = Atomic.make 0 in
  (* Resched: dispatch gate during the snapshot + queue swap. *)
  let paused = Atomic.make false in
  let resched_latency =
    Option.map
      (fun m ->
        Metrics.histogram m ~help:"reschedule latency per fault event, ns"
          "rt_resched_latency_ns")
      config.metrics
  in
  let abandon_dead_work () =
    (* Anything still queued on a dead domain will never run, and
       neither will its dependence cone; doom the cone so survivors can
       drop past doomed queue fronts. *)
    let roots = ref [] in
    for v = procs - 1 downto 0 do
      if State.is_dead st v then roots := Deque.to_list queues.(v) @ !roots
    done;
    ignore (Atomic.fetch_and_add abandoned (doom g ~doomed !roots))
  in
  let reschedule_frontier ~algo ~domain =
    Atomic.set paused true;
    Fun.protect
      ~finally:(fun () -> Atomic.set paused false)
      (fun () ->
        let t0 = Clock.now_ns () in
        let now = State.now_units st in
        let dead = ref [] in
        for v = procs - 1 downto 0 do
          if State.is_dead st v then dead := v :: !dead
        done;
        let slowdown_of =
          Array.init procs (fun v -> (Fault.for_domain config.faults v).Fault.slowdown)
        in
        let floors = Array.make procs now in
        let frozen = ref [] in
        (* Claimed = executed or in flight. Claims are published with SC
           atomics in dependency order, so one ascending scan observes a
           predecessor-closed set. In-flight tasks freeze at their claim
           time with a predicted finish, which also floors their
           domain's ready time. *)
        for t = 0 to n - 1 do
          let owner = Atomic.get st.State.owner.(t) in
          if owner >= 0 then begin
            let start = st.State.claim_units.(t) in
            let finish =
              if st.State.finish_ns.(t) > 0.0 then
                (st.State.finish_ns.(t) -. st.State.start_ns) /. config.unit_ns
              else
                Float.max now (start +. (Taskgraph.comp g t *. slowdown_of.(owner)))
            in
            let finish = Float.max finish start in
            if st.State.finish_ns.(t) <= 0.0 && not (State.is_dead st owner) then
              floors.(owner) <- Float.max floors.(owner) finish;
            frozen := { Snapshot.task = t; proc = owner; start; finish } :: !frozen
          end
        done;
        let ready = ref [] in
        for v = procs - 1 downto 0 do
          if not (State.is_dead st v) then ready := (v, floors.(v)) :: !ready
        done;
        let snap =
          Snapshot.make ~dead:!dead ~ready:!ready ~frozen:!frozen g
            (Schedule.machine sched)
        in
        Array.iteri (fun v tasks -> Deque.reset queues.(v) tasks) (replan ~algo snap);
        let dt = Clock.now_ns () -. t0 in
        ignore (Atomic.fetch_and_add st.State.rescheds 1);
        Option.iter (fun h -> Metrics.Histogram.observe h dt) resched_latency;
        Option.iter
          (fun m ->
            Metrics.Gauge.set
              (Metrics.gauge m ~help:"unexecuted tasks at the last reschedule"
                 "rt_resched_frontier")
              (float_of_int (Snapshot.frontier_size snap)))
          config.metrics;
        State.record st ~domain Flight.Resched ~a:(Snapshot.frontier_size snap) ~b:dt)
  in
  let maybe_coordinate d =
    if
      Atomic.get st.State.deaths > Atomic.get deaths_handled
      && Mutex.try_lock coord_lock
    then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock coord_lock)
        (fun () ->
          let d_now = Atomic.get st.State.deaths in
          if d_now > Atomic.get deaths_handled then begin
            (match config.recover with
            | Engine.No_recovery -> abandon_dead_work ()
            | Engine.Resched algo when config.unit_ns > 0.0 ->
              reschedule_frontier ~algo ~domain:d
            | Engine.Resched _ | Engine.Steal_queues -> ());
            (* Deaths that arrive during the reaction leave
               [deaths > d_now], so the next observer coordinates again. *)
            Atomic.set deaths_handled d_now
          end)
  in
  let finished () =
    match config.recover with
    | Engine.No_recovery -> Atomic.get st.State.completed + Atomic.get abandoned >= n
    | Engine.Steal_queues | Engine.Resched _ -> Atomic.get st.State.completed >= n
  in
  State.run_team ~finished st (fun d ~busy ->
    let fruitless = ref 0 in
    let run_one ~slowdown ~recovering t =
      fruitless := 0;
      if recovering then begin
        ignore (Atomic.fetch_and_add st.State.recovered 1);
        State.record st ~domain:d Flight.Recover ~a:t ~b:(-1.0)
      end;
      (* A recovered task runs on a survivor, away from its scheduled
         placement — the static engine's only source of hint misses. *)
      State.count_hint st ~hit:(not recovering);
      busy := !busy +. State.run_task st ~domain:d ~slowdown t;
      st.State.d_tasks.(d) <- st.State.d_tasks.(d) + 1
    in
    (* Under rescheduling a task can transiently sit in two queues (the
       pre-swap one it was taken from and the post-swap plan); the claim
       CAS guarantees a single execution, losers drop the stale entry. *)
    let claim_and_run ~slowdown ~recovering t =
      fruitless := 0;
      if State.try_claim st ~domain:d t then run_one ~slowdown ~recovering t
    in
    let idle () =
      incr fruitless;
      Engine.relax !fruitless
    in
    let step_none ~slowdown =
      (* Doomed tasks never become ready and would block the queue front
         forever; pull them off and drop them. *)
      match Deque.take_front_if queues.(d) (fun t -> doomed.(t) || State.ready st t) with
      | Some t -> if doomed.(t) then fruitless := 0 else run_one ~slowdown ~recovering:false t
      | None -> idle ()
    in
    let ready = State.ready st in
    (* A ready task taken from the front of some dead domain's queue, or
       -1: an int, so a scan that finds nothing allocates nothing. *)
    let take_dead_front () =
      let found = ref (-1) and v = ref 0 in
      while !found < 0 && !v < procs do
        (if !v <> d && State.is_dead st !v then
           match Deque.take_front_if queues.(!v) ready with
           | Some t -> found := t
           | None -> ());
        incr v
      done;
      !found
    in
    let step_steal ~slowdown =
      (* Own queue first — the placement is only overridden for the
         queues of dead domains, whose fronts any survivor may take. *)
      match Deque.take_front_if queues.(d) ready with
      | Some t -> run_one ~slowdown ~recovering:false t
      | None ->
        let t = take_dead_front () in
        if t >= 0 then run_one ~slowdown ~recovering:true t else idle ()
    in
    let step_resched ~slowdown =
      if Atomic.get paused then idle ()
      else
        match Deque.take_front_if queues.(d) ready with
        | Some t -> claim_and_run ~slowdown ~recovering:false t
        | None ->
          (* Backstop for the window between a death and the queue swap:
             dead fronts may be claimed, exactly as under Steal_queues.
             After the swap dead queues are empty. *)
          let t = take_dead_front () in
          if t >= 0 then claim_and_run ~slowdown ~recovering:true t else idle ()
    in
    fun ~slowdown ->
      (match config.recover with
      | Engine.No_recovery | Engine.Resched _ -> maybe_coordinate d
      | Engine.Steal_queues -> ());
      match config.recover with
      | Engine.No_recovery -> step_none ~slowdown
      | Engine.Steal_queues -> step_steal ~slowdown
      | Engine.Resched _ -> step_resched ~slowdown)
