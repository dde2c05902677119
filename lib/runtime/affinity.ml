open! Flb_taskgraph
open! Flb_platform
module State = Engine.State
module Rng = Flb_prelude.Rng
module Flight = Flb_obs.Flight_recorder

(* Consecutive empty-handed probe rounds a thief tolerates before it
   starts backing off — the bounded-attempts discipline of decentralized
   list scheduling, which keeps steal traffic O(attempts) per idle spell
   instead of a hot loop on the victims' locks. *)
let probe_attempts = 4

(* A task's staged data is its heaviest in-edge, sent toward the hinted
   processor; a thief elsewhere pays to pull it over. Entry tasks carry
   no data, so stealing seed work is free. *)
let migration_price sched =
  let g = Schedule.graph sched in
  let machine = Schedule.machine sched in
  let cost =
    Array.init (Taskgraph.num_tasks g) (fun t ->
        let m = ref 0.0 in
        Taskgraph.iter_preds g t (fun _ w -> if w > !m then m := w);
        !m)
  in
  fun ~thief t ->
    let h = Schedule.proc sched t in
    if h = thief then 0.0 else Machine.comm_time machine ~src:h ~dst:thief ~cost:cost.(t)

(* Seeded from the schedule, not round-robin: each domain starts with
   its scheduled entry tasks. The list is reversed so the owner's LIFO
   back pops them in schedule order, which leaves the deque's FIFO front
   — what thieves take — holding the work this domain would reach
   last. *)
let seed sched =
  let g = Schedule.graph sched in
  Array.map
    (fun tasks ->
      Deque.of_list (List.rev (List.filter (Taskgraph.is_entry g) tasks)))
    (Schedule.execution_order sched)

let run ?(config = Engine.default_config) sched =
  let g = Schedule.graph sched in
  let procs = Schedule.num_procs sched in
  if config.Engine.domains <> procs then
    invalid_arg
      (Printf.sprintf "Affinity.run: config has %d domains but the schedule uses %d"
         config.Engine.domains procs);
  let dnum = procs in
  let st =
    State.create config ~engine:"affinity" ~predicted:(Schedule.makespan sched) g
  in
  let price = migration_price sched in
  (* Migration pricing: stealing a task whose hint is elsewhere starts a
     transfer of its staged data, and the task may not begin before the
     transfer lands. The deadline is stamped at steal time and checked
     at execution, so transfers overlap with whatever else the thief
     runs first — batch thefts pay parallel transfers, not a serial sum.
     No write race: a stolen task's slot is stamped after [steal_half]
     removed it from the victim and before the thief re-publishes it,
     while no other domain can hold it. *)
  let mig_deadline = Array.make (Taskgraph.num_tasks g) 0.0 in
  let deques = seed sched in
  (* QUARK-LOCALITY routing: a newly enabled task goes to its hinted
     domain's mailbox — the processor the schedule chose — falling back
     to the enabling domain when the hint is dead. *)
  let route d s =
    let h = Schedule.proc sched s in
    Deque.push_back deques.(if State.is_dead st h then d else h) s
  in
  State.run_team st (fun d ~busy ->
    let rng = Engine.victim_rng config d in
    let backoff = ref 0 in
    let fails = ref 0 in
    let run_one ~slowdown t =
      backoff := 0;
      fails := 0;
      let until = mig_deadline.(t) in
      if until > 0.0 then begin
        let m = ref 0 in
        while Clock.now_ns () < until do
          incr m;
          Engine.relax !m
        done
      end;
      State.count_hint st ~hit:(Schedule.proc sched t = d);
      busy :=
        !busy +. State.run_task_enqueue st ~domain:d ~slowdown ~on_ready:(route d) t;
      st.State.d_tasks.(d) <- st.State.d_tasks.(d) + 1
    in
    let charge_migration ts =
      if config.Engine.charge_comm && config.Engine.unit_ns > 0.0 then begin
        let now = Clock.now_ns () in
        List.iter
          (fun t ->
            let units = price ~thief:d t in
            if units > 0.0 then mig_deadline.(t) <- now +. (units *. config.Engine.unit_ns))
          ts
      end
    in
    fun ~slowdown ->
      match Deque.pop_back deques.(d) with
      | Some t -> run_one ~slowdown t
      | None ->
        if dnum = 1 then begin
          backoff := !backoff + 1;
          Engine.relax !backoff
        end
        else begin
          (* Load-aware victim selection: probe two random victims and
             steal from the deeper deque (the power of two choices, per
             the decentralized-list-scheduling analysis). *)
          let v1 = (d + 1 + Rng.int rng (dnum - 1)) mod dnum in
          let victim =
            if dnum = 2 then v1
            else
              let v2 = (d + 1 + Rng.int rng (dnum - 1)) mod dnum in
              if Deque.length deques.(v2) > Deque.length deques.(v1) then v2
              else v1
          in
          match Deque.steal_half deques.(victim) with
          | [] ->
            ignore (Atomic.fetch_and_add st.State.failed_steals 1);
            incr fails;
            if !fails >= probe_attempts then begin
              backoff := Int.min ((2 * !backoff) + 1) Engine.max_backoff;
              Engine.relax !backoff
            end
            else Engine.relax !fails
          | t :: rest as batch ->
            ignore (Atomic.fetch_and_add st.State.steals 1);
            State.record st ~domain:d Flight.Steal ~a:t ~b:(float_of_int victim);
            if State.is_dead st victim then begin
              ignore
                (Atomic.fetch_and_add st.State.recovered (List.length batch));
              State.record st ~domain:d Flight.Recover ~a:t ~b:(float_of_int victim)
            end;
            charge_migration batch;
            (* Keep the oldest stolen task for immediate execution and
               deposit the rest at the front of the thief's own deque, so
               they stay oldest-first for onward thieves while the back
               remains reserved for the hot tasks the thief enables. *)
            Deque.push_front_batch deques.(d) rest;
            run_one ~slowdown t
        end)
