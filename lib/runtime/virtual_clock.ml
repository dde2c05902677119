open! Flb_taskgraph
open! Flb_platform
module Snapshot = Flb_reschedule.Snapshot
module Reschedule = Flb_reschedule.Reschedule

type outcome = {
  start : float array;
  finish : float array;
  exec_domain : int array;
  makespan : float;
  completed : int;
  total : int;
  killed : int;
  rescheds : int;
  recovered : int;
  steals : int;
  hint_hits : int;
  hint_misses : int;
  per_domain_tasks : int array;
}

let complete o = o.completed = o.total

(* Earliest instant at or after [x] that is outside every stall window
   of the domain. Windows are sorted by start; [x] only moves forward,
   so one ascending pass settles it. *)
let next_allowed (df : Fault.domain_faults) x =
  List.fold_left
    (fun x (at, dur) -> if x >= at && x < at +. dur then at +. dur else x)
    x df.Fault.stalls

(* Deterministic rendition of [Static.run]: a global event loop over
   per-domain claim events and death events, processed in increasing
   virtual time (deaths before claims on ties, then lowest domain, then a
   domain's own queue before a dead one's). A claim takes the front of a
   queue at the later of the domain's free time and the last message
   arrival, skipped past stall windows; a death fires at
   [max (domain's free time) kill_at] — fail-stop between tasks. With an
   empty fault spec no death or stall ever perturbs a claim, so each task
   starts at the later of its processor's previous finish and its last
   message arrival — the event times of the discrete-event simulator,
   from the same floats by the same float operations (a zero-latency
   message arrives at the sender's exact finish float, a positive-latency
   one at [finish +. latency]), hence bit-identical. *)
let run_static ?(faults = Fault.none) ?(recover = Engine.Steal_queues) sched =
  let g = Schedule.graph sched in
  let machine = Schedule.machine sched in
  let n = Taskgraph.num_tasks g in
  let p = Schedule.num_procs sched in
  (match Fault.validate faults ~domains:p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Virtual_clock: " ^ Fault.error_to_string e));
  (match recover with
  | Engine.Resched algo when Reschedule.find algo = None ->
    invalid_arg
      (Printf.sprintf "Virtual_clock: unknown reschedule algorithm %S" algo)
  | _ -> ());
  let df = Array.init p (Fault.for_domain faults) in
  let queues = Array.map Array.of_list (Engine.plan_of_schedule sched) in
  let qpos = Array.make p 0 in
  let vt = Array.make p 0.0 in
  let dead = Array.make p false in
  let death_time = Array.make p Float.nan in
  let pending = Array.init n (Taskgraph.in_degree g) in
  let start = Array.make n Float.nan in
  let finish = Array.make n Float.nan in
  let exec_domain = Array.make n (-1) in
  let doomed = Array.make n false in
  let per_domain_tasks = Array.make p 0 in
  let executed = ref 0 in
  let killed = ref 0 in
  let rescheds = ref 0 in
  let recovered = ref 0 in
  let arrival d t =
    let at = ref 0.0 in
    Taskgraph.iter_preds g t (fun pd w ->
        let latency = Machine.comm_time machine ~src:exec_domain.(pd) ~dst:d ~cost:w in
        let a = if latency = 0.0 then finish.(pd) else finish.(pd) +. latency in
        at := Float.max !at a);
    !at
  in
  (* Queue front of [v], skipping entries doomed by a No_recovery death
     sweep (the real engine pulls and drops those). *)
  let head v =
    while qpos.(v) < Array.length queues.(v) && doomed.(queues.(v).(qpos.(v))) do
      qpos.(v) <- qpos.(v) + 1
    done;
    if qpos.(v) < Array.length queues.(v) then Some queues.(v).(qpos.(v)) else None
  in
  let doom_dead_queues () =
    let stack = ref [] in
    let push t =
      if not doomed.(t) && exec_domain.(t) < 0 then begin
        doomed.(t) <- true;
        stack := t :: !stack
      end
    in
    for v = 0 to p - 1 do
      if dead.(v) then
        for i = qpos.(v) to Array.length queues.(v) - 1 do
          push queues.(v).(i)
        done
    done;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | t :: rest ->
        stack := rest;
        Taskgraph.iter_succs g t (fun s _ -> push s)
    done
  in
  let reschedule algo ~now =
    let live = ref 0 in
    for v = 0 to p - 1 do
      if not dead.(v) then incr live
    done;
    if !live > 0 && !executed < n then begin
      let dead_l = ref [] and ready_l = ref [] and frozen = ref [] in
      for v = p - 1 downto 0 do
        if dead.(v) then dead_l := v :: !dead_l
        else ready_l := (v, Float.max now vt.(v)) :: !ready_l
      done;
      for t = n - 1 downto 0 do
        if exec_domain.(t) >= 0 then
          frozen :=
            {
              Snapshot.task = t;
              proc = exec_domain.(t);
              start = start.(t);
              finish = finish.(t);
            }
            :: !frozen
      done;
      let snap = Snapshot.make ~dead:!dead_l ~ready:!ready_l ~frozen:!frozen g machine in
      let sched' = Reschedule.run ~algo snap in
      let plan' = Engine.plan_of_schedule sched' in
      Array.iteri
        (fun v tasks ->
          queues.(v) <-
            Array.of_list
              (List.filter (fun t -> not (Schedule.is_frozen sched' t)) tasks);
          qpos.(v) <- 0)
        plan';
      incr rescheds
    end
  in
  (* One pass per event keeps this O(events * P * degree) — fine for the
     test- and experiment-sized graphs the virtual clock exists for. *)
  let running = ref true in
  while !running do
    (* Best claim: (time, domain, task, source queue). Best death:
       (time, domain). *)
    let ct = ref Float.infinity and cd = ref (-1) and ctask = ref (-1) in
    let csrc = ref (-1) in
    let dt = ref Float.infinity and dd = ref (-1) in
    for d = 0 to p - 1 do
      if not dead.(d) then begin
        let kat = df.(d).Fault.kill_at in
        let deatht = if Float.is_finite kat then Float.max vt.(d) kat else infinity in
        (* Earliest claim available to this domain: own front, then —
           under steal recovery — the fronts of dead domains' queues,
           floored at the victim's death. *)
        let my_t = ref (-1) and my_time = ref Float.infinity and my_src = ref (-1) in
        let consider ~floor v =
          match head v with
          | Some t when pending.(t) = 0 ->
            let base = Float.max vt.(d) (arrival d t) in
            let base = if floor > base then floor else base in
            let c = next_allowed df.(d) base in
            if c < !my_time then begin
              my_t := t;
              my_time := c;
              my_src := v
            end
          | _ -> ()
        in
        consider ~floor:0.0 d;
        (match recover with
        | Engine.Steal_queues ->
          for v = 0 to p - 1 do
            if v <> d && dead.(v) then consider ~floor:death_time.(v) v
          done
        | Engine.No_recovery | Engine.Resched _ -> ());
        (* The domain polls the fault clock before taking work, so a
           death due at or before the claim preempts it. *)
        if !my_t >= 0 && !my_time < deatht then begin
          if !my_time < !ct then begin
            ct := !my_time;
            cd := d;
            ctask := !my_t;
            csrc := !my_src
          end
        end
        else if deatht < !dt then begin
          dt := deatht;
          dd := d
        end
      end
    done;
    if !dd >= 0 && !dt <= !ct then begin
      (* Fire the death only if the domain is still in its loop: once
         everything has executed, workers observe completion and exit,
         so a later kill never registers. *)
      let horizon = Array.fold_left Float.max 0.0 vt in
      if !executed < n || !dt <= horizon then begin
        let d = !dd in
        dead.(d) <- true;
        death_time.(d) <- !dt;
        incr killed;
        match recover with
        | Engine.No_recovery -> doom_dead_queues ()
        | Engine.Steal_queues -> ()
        | Engine.Resched algo -> reschedule algo ~now:!dt
      end
      else running := false
    end
    else if !cd >= 0 then begin
      let d = !cd and t = !ctask in
      if !csrc <> d then incr recovered;
      start.(t) <- !ct;
      finish.(t) <- !ct +. (Taskgraph.comp g t *. df.(d).Fault.slowdown);
      vt.(d) <- finish.(t);
      exec_domain.(t) <- d;
      per_domain_tasks.(d) <- per_domain_tasks.(d) + 1;
      qpos.(!csrc) <- qpos.(!csrc) + 1;
      Taskgraph.iter_succs g t (fun s _ -> pending.(s) <- pending.(s) - 1);
      incr executed
    end
    else running := false
  done;
  (* Without a death every queue belongs to a live domain, so stopping
     short means every remaining front waits on a task queued behind it. *)
  if !executed < n && !killed = 0 then
    invalid_arg "Virtual_clock.run_static: replay deadlocked (inconsistent order)";
  {
    start;
    finish;
    exec_domain;
    makespan = Array.fold_left Float.max 0.0 vt;
    completed = !executed;
    total = n;
    killed = !killed;
    rescheds = !rescheds;
    recovered = !recovered;
    steals = 0;
    (* Recovered tasks ran away from their scheduled placement; all
       others ran exactly where placed. *)
    hint_hits = !executed - !recovered;
    hint_misses = !recovered;
    per_domain_tasks;
  }

(* Deterministic rendition of [Steal.run]. Dead domains stop acting but
   their deques stay stealable, so recovery is the stealing engine's
   natural behaviour. *)
let run_steal ?(charge_comm = true) ?(faults = Fault.none) ~domains g =
  if domains < 1 then
    invalid_arg "Virtual_clock.run_steal: domains must be >= 1";
  (match Fault.validate faults ~domains with
  | Ok () -> ()
  | Error e -> invalid_arg ("Virtual_clock: " ^ Fault.error_to_string e));
  let df = Array.init domains (Fault.for_domain faults) in
  let n = Taskgraph.num_tasks g in
  let pending = Array.init n (Taskgraph.in_degree g) in
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  let next = ref 0 in
  for t = 0 to n - 1 do
    if Taskgraph.in_degree g t = 0 then begin
      Deque.push_back deques.(!next mod domains) t;
      incr next
    end
  done;
  let vt = Array.make domains 0.0 in
  let dead = Array.make domains false in
  let exec_domain = Array.make n (-1) in
  let start = Array.make n Float.nan in
  let finish = Array.make n Float.nan in
  let per_domain_tasks = Array.make domains 0 in
  let steals = ref 0 in
  let killed = ref 0 in
  let executed = ref 0 in
  let running = ref true in
  while !running && !executed < n do
    (* The earliest-free alive domain acts next; ties to the lowest id.
       Stall windows push its acting time forward. *)
    let d = ref (-1) in
    let at = ref Float.infinity in
    for i = 0 to domains - 1 do
      if not dead.(i) then begin
        let a = next_allowed df.(i) vt.(i) in
        if a < !at then begin
          at := a;
          d := i
        end
      end
    done;
    if !d < 0 then running := false
    else begin
      let d = !d in
      if !at >= df.(d).Fault.kill_at then begin
        dead.(d) <- true;
        incr killed
      end
      else begin
        let task =
          match Deque.pop_back deques.(d) with
          | Some _ as t -> t
          | None ->
            let found = ref None in
            for k = 1 to domains - 1 do
              if !found = None then begin
                match Deque.take_front deques.((d + k) mod domains) with
                | Some _ as t ->
                  incr steals;
                  found := t
                | None -> ()
              end
            done;
            !found
        in
        match task with
        | None ->
          (* Every unexecuted indegree-0 task sits in some deque (dead
             ones included, which stay stealable), so an alive domain
             always finds work while tasks remain. *)
          invalid_arg "Virtual_clock.run_steal: no runnable task"
        | Some t ->
          let ready = ref 0.0 in
          Taskgraph.iter_preds g t (fun pd w ->
              let r =
                if charge_comm && exec_domain.(pd) <> d then finish.(pd) +. w
                else finish.(pd)
              in
              ready := Float.max !ready r);
          let s = next_allowed df.(d) (Float.max !at !ready) in
          start.(t) <- s;
          finish.(t) <- s +. (Taskgraph.comp g t *. df.(d).Fault.slowdown);
          vt.(d) <- finish.(t);
          exec_domain.(t) <- d;
          per_domain_tasks.(d) <- per_domain_tasks.(d) + 1;
          incr executed;
          Taskgraph.iter_succs g t (fun su _ ->
              pending.(su) <- pending.(su) - 1;
              if pending.(su) = 0 then Deque.push_back deques.(d) su)
      end
    end
  done;
  let makespan = Array.fold_left Float.max 0.0 vt in
  (* Kills due before the team would have disbanded still register. *)
  for i = 0 to domains - 1 do
    if (not dead.(i)) && df.(i).Fault.kill_at <= makespan then incr killed
  done;
  {
    start;
    finish;
    exec_domain;
    makespan;
    completed = !executed;
    total = n;
    killed = !killed;
    rescheds = 0;
    recovered = 0;
    steals = !steals;
    (* A task's hint is the deque it was placed in, so each steal is
       exactly one miss — matching the real engine's accounting. *)
    hint_hits = !executed - !steals;
    hint_misses = !steals;
    per_domain_tasks;
  }

(* Deterministic rendition of [Affinity.run]: domains act in
   lowest-virtual-time-first order (ties to the lowest id); each deque is
   seeded with its scheduled entry tasks and a newly enabled task is
   routed to the deque of its hinted (scheduled) processor, or of the
   enabling domain while the hinted one is dead. An empty domain steals
   half of the {e deepest} other deque — the load-aware victim rule, with
   the random two-victim probe collapsed to its deterministic limit —
   runs the oldest stolen task and keeps the rest at its own front. Each
   stolen task whose hint is not the thief is stamped with a transfer
   deadline — steal instant plus [Machine.comm_time] for its heaviest
   in-edge — and may not start before it, exactly as the real engine
   prices migration (transfers overlap with whatever the thief runs
   first). Dead domains stop acting but their deques stay stealable; a
   batch stolen from a dead victim counts wholly as [recovered]. *)
let run_affinity ?(charge_comm = true) ?(faults = Fault.none) sched =
  let g = Schedule.graph sched in
  let machine = Schedule.machine sched in
  let n = Taskgraph.num_tasks g in
  let domains = Schedule.num_procs sched in
  (match Fault.validate faults ~domains with
  | Ok () -> ()
  | Error e -> invalid_arg ("Virtual_clock: " ^ Fault.error_to_string e));
  let df = Array.init domains (Fault.for_domain faults) in
  let mig_cost =
    Array.init n (fun t ->
        let m = ref 0.0 in
        Taskgraph.iter_preds g t (fun _ w -> if w > !m then m := w);
        !m)
  in
  let pending = Array.init n (Taskgraph.in_degree g) in
  (* Reversed so the owner's LIFO back yields schedule order, as in the
     real engine's seeding. *)
  let deques =
    Array.map
      (fun tasks ->
        Deque.of_list
          (List.rev (List.filter (fun t -> Taskgraph.in_degree g t = 0) tasks)))
      (Engine.plan_of_schedule sched)
  in
  let vt = Array.make domains 0.0 in
  let mig_deadline = Array.make n 0.0 in
  let dead = Array.make domains false in
  let exec_domain = Array.make n (-1) in
  let start = Array.make n Float.nan in
  let finish = Array.make n Float.nan in
  let per_domain_tasks = Array.make domains 0 in
  let steals = ref 0 in
  let killed = ref 0 in
  let recovered = ref 0 in
  let hint_hits = ref 0 in
  let hint_misses = ref 0 in
  let executed = ref 0 in
  let running = ref true in
  while !running && !executed < n do
    let d = ref (-1) in
    let at = ref Float.infinity in
    for i = 0 to domains - 1 do
      if not dead.(i) then begin
        let a = next_allowed df.(i) vt.(i) in
        if a < !at then begin
          at := a;
          d := i
        end
      end
    done;
    if !d < 0 then running := false
    else begin
      let d = !d in
      if !at >= df.(d).Fault.kill_at then begin
        dead.(d) <- true;
        incr killed
      end
      else begin
        let task =
          match Deque.pop_back deques.(d) with
          | Some _ as t -> t
          | None ->
            let victim = ref (-1) and depth = ref 0 in
            for k = 1 to domains - 1 do
              let v = (d + k) mod domains in
              let len = Deque.length deques.(v) in
              if len > !depth then begin
                depth := len;
                victim := v
              end
            done;
            if !victim < 0 then None
            else begin
              match Deque.steal_half deques.(!victim) with
              | [] -> None
              | t :: rest as batch ->
                incr steals;
                if dead.(!victim) then recovered := !recovered + List.length batch;
                if charge_comm then
                  List.iter
                    (fun s ->
                      let h = Schedule.proc sched s in
                      if h <> d then
                        mig_deadline.(s) <-
                          !at
                          +. Machine.comm_time machine ~src:h ~dst:d
                               ~cost:mig_cost.(s))
                    batch;
                Deque.push_front_batch deques.(d) rest;
                Some t
            end
        in
        match task with
        | None ->
          (* Every unexecuted indegree-0 task sits in some deque (dead
             ones included, which stay stealable), so an alive domain
             always finds work while tasks remain. *)
          invalid_arg "Virtual_clock.run_affinity: no runnable task"
        | Some t ->
          let ready = ref mig_deadline.(t) in
          Taskgraph.iter_preds g t (fun pd w ->
              let r =
                if charge_comm && exec_domain.(pd) <> d then finish.(pd) +. w
                else finish.(pd)
              in
              ready := Float.max !ready r);
          let s = next_allowed df.(d) (Float.max !at !ready) in
          start.(t) <- s;
          finish.(t) <- s +. (Taskgraph.comp g t *. df.(d).Fault.slowdown);
          vt.(d) <- finish.(t);
          exec_domain.(t) <- d;
          per_domain_tasks.(d) <- per_domain_tasks.(d) + 1;
          if Schedule.proc sched t = d then incr hint_hits else incr hint_misses;
          incr executed;
          Taskgraph.iter_succs g t (fun su _ ->
              pending.(su) <- pending.(su) - 1;
              if pending.(su) = 0 then begin
                let h = Schedule.proc sched su in
                Deque.push_back deques.(if dead.(h) then d else h) su
              end)
      end
    end
  done;
  let makespan = Array.fold_left Float.max 0.0 vt in
  (* Kills due before the team would have disbanded still register. *)
  for i = 0 to domains - 1 do
    if (not dead.(i)) && df.(i).Fault.kill_at <= makespan then incr killed
  done;
  {
    start;
    finish;
    exec_domain;
    makespan;
    completed = !executed;
    total = n;
    killed = !killed;
    rescheds = 0;
    recovered = !recovered;
    steals = !steals;
    hint_hits = !hint_hits;
    hint_misses = !hint_misses;
    per_domain_tasks;
  }
