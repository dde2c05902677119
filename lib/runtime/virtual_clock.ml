open! Flb_taskgraph
open! Flb_platform
module Snapshot = Flb_reschedule.Snapshot

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

let check_faults faults ~domains =
  match Fault.validate faults ~domains with
  | Ok () -> ()
  | Error e -> invalid_arg ("Virtual_clock: " ^ Fault.error_to_string e)

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
  check_faults faults ~domains:p;
  Static.check_recover recover;
  let df = Array.init p (Fault.for_domain faults) in
  let queues = Array.map Array.of_list (Schedule.execution_order sched) in
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
    let roots = ref [] in
    for v = 0 to p - 1 do
      if dead.(v) then
        for i = qpos.(v) to Array.length queues.(v) - 1 do
          roots := queues.(v).(i) :: !roots
        done
    done;
    ignore (Static.doom g ~doomed !roots)
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
      Array.iteri
        (fun v tasks ->
          queues.(v) <- Array.of_list tasks;
          qpos.(v) <- 0)
        (Static.replan ~algo snap);
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

(* The one event loop of the stealing disciplines: domains act in
   lowest-virtual-time-first order (ties to the lowest id, stall windows
   pushing an acting time forward); an acting domain whose kill is due
   dies, any other pops its own deque LIFO or, when that is empty, calls
   the discipline's [steal]. A taken task starts at the later of the
   domain's clock, the discipline's [floor] for it and its predecessors'
   arrivals (a cross-domain edge charges its weight when [charge_comm]),
   counts as a hint hit or miss by the discipline's [hit], and hands the
   successors it enables to [route]. Dead domains stop acting but their
   deques stay stealable. *)
let run_stealing ~charge_comm ~faults ~steal ~floor ~route ~hit deques g =
  let domains = Array.length deques in
  check_faults faults ~domains;
  let df = Array.init domains (Fault.for_domain faults) in
  let n = Taskgraph.num_tasks g in
  let pending = Array.init n (Taskgraph.in_degree g) in
  let vt = Array.make domains 0.0 in
  let dead = Array.make domains false in
  let exec_domain = Array.make n (-1) in
  let start = Array.make n Float.nan in
  let finish = Array.make n Float.nan in
  let per_domain_tasks = Array.make domains 0 in
  let steals = ref 0 and killed = ref 0 and executed = ref 0 in
  let hint_hits = ref 0 and hint_misses = ref 0 in
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
      let d = !d and at = !at in
      if at >= df.(d).Fault.kill_at then begin
        dead.(d) <- true;
        incr killed
      end
      else begin
        let t, stolen =
          match Deque.pop_back deques.(d) with
          | Some t -> (t, false)
          | None -> (
            match steal ~dead d at with
            | Some t ->
              incr steals;
              (t, true)
            | None ->
              (* Every unexecuted indegree-0 task sits in some deque (dead
                 ones included, which stay stealable), so an alive domain
                 always finds work while tasks remain. *)
              invalid_arg "Virtual_clock: no runnable task")
        in
        let ready = ref (floor t) in
        Taskgraph.iter_preds g t (fun pd w ->
            let r =
              if charge_comm && exec_domain.(pd) <> d then finish.(pd) +. w
              else finish.(pd)
            in
            ready := Float.max !ready r);
        let s = next_allowed df.(d) (Float.max at !ready) in
        start.(t) <- s;
        finish.(t) <- s +. (Taskgraph.comp g t *. df.(d).Fault.slowdown);
        vt.(d) <- finish.(t);
        exec_domain.(t) <- d;
        per_domain_tasks.(d) <- per_domain_tasks.(d) + 1;
        if hit d ~stolen t then incr hint_hits else incr hint_misses;
        incr executed;
        Taskgraph.iter_succs g t (fun su _ ->
            pending.(su) <- pending.(su) - 1;
            if pending.(su) = 0 then route ~dead d su)
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
    hint_hits = !hint_hits;
    hint_misses = !hint_misses;
    per_domain_tasks;
  }

(* [Steal.run]'s discipline: round-robin seeding, successors kept by the
   domain that enabled them, and a thief that takes the front of the
   first non-empty deque scanning from its right neighbour. A task's hint
   is the deque it was placed in, so each steal is exactly one miss —
   matching the real engine's accounting, which also counts a theft from
   a dead victim as [recovered]. *)
let run_steal ?(charge_comm = true) ?(faults = Fault.none) ~domains g =
  if domains < 1 then
    invalid_arg "Virtual_clock.run_steal: domains must be >= 1";
  let deques = Steal.seed ~domains g in
  let recovered = ref 0 in
  let steal ~dead d _ =
    let found = ref None in
    for k = 1 to domains - 1 do
      if !found = None then begin
        let victim = (d + k) mod domains in
        found := Deque.take_front deques.(victim);
        if !found <> None && dead.(victim) then incr recovered
      end
    done;
    !found
  in
  let o =
    run_stealing ~charge_comm ~faults ~steal
      ~floor:(fun _ -> 0.0)
      ~route:(fun ~dead:_ d t -> Deque.push_back deques.(d) t)
      ~hit:(fun _ ~stolen _ -> not stolen)
      deques g
  in
  { o with recovered = !recovered }

(* [Affinity.run]'s discipline: schedule seeding, and each newly enabled
   task routed to its hinted (scheduled) processor's deque, or the
   enabling domain's while the hinted one is dead. An empty domain steals
   half of the {e deepest} other deque — the load-aware victim rule, with
   the random two-victim probe collapsed to its deterministic limit —
   runs the oldest stolen task and keeps the rest at its own front. Each
   stolen task with a migration price may not start before the steal
   instant plus that price, which the readiness floor enforces; so, as
   in the real engine, transfers overlap with whatever the thief runs
   first. A batch stolen from a dead victim counts wholly as
   [recovered]. *)
let run_affinity ?(charge_comm = true) ?(faults = Fault.none) sched =
  let deques = Affinity.seed sched in
  let domains = Array.length deques in
  let price = Affinity.migration_price sched in
  let mig_deadline = Array.make (Taskgraph.num_tasks (Schedule.graph sched)) 0.0 in
  let recovered = ref 0 in
  let steal ~dead d at =
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
    else
      match Deque.steal_half deques.(!victim) with
      | [] -> None
      | t :: rest as batch ->
        if dead.(!victim) then recovered := !recovered + List.length batch;
        if charge_comm then
          List.iter
            (fun s ->
              let units = price ~thief:d s in
              if units > 0.0 then mig_deadline.(s) <- at +. units)
            batch;
        Deque.push_front_batch deques.(d) rest;
        Some t
  in
  let route ~dead d s =
    let h = Schedule.proc sched s in
    Deque.push_back deques.(if dead.(h) then d else h) s
  in
  let o =
    run_stealing ~charge_comm ~faults ~steal ~floor:(Array.get mig_deadline) ~route
      ~hit:(fun d ~stolen:_ t -> Schedule.proc sched t = d)
      deques (Schedule.graph sched)
  in
  { o with recovered = !recovered }
