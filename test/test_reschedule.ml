(* lib/reschedule: snapshots of partially executed runs and their
   completion by any registered list scheduler. The anchor property is
   the identity: rescheduling from an empty snapshot (no history, no
   dead processors, no ready floors) reproduces the from-scratch
   scheduler bit for bit — so the fault path and the healthy path are
   the same code, not a parallel implementation that can drift. *)

open! Flb_taskgraph
open! Flb_platform
open Testutil
module RS = Flb_reschedule
module R = Flb_runtime
module E = Flb_experiments

let bits = Int64.bits_of_float

let frozen task proc start finish = { RS.Snapshot.task; proc; start; finish }

(* --- Snapshot validation --- *)

let test_snapshot_validation () =
  let g = Example.fig1 () in
  let m = Machine.clique ~num_procs:2 in
  ignore (RS.Snapshot.make g m);
  check_raises_invalid "dead proc out of range" (fun () ->
      RS.Snapshot.make ~dead:[ 5 ] g m);
  check_raises_invalid "every proc dead" (fun () ->
      RS.Snapshot.make ~dead:[ 0; 1 ] g m);
  check_raises_invalid "ready proc out of range" (fun () ->
      RS.Snapshot.make ~ready:[ (7, 1.0) ] g m);
  check_raises_invalid "negative ready floor" (fun () ->
      RS.Snapshot.make ~ready:[ (0, -1.0) ] g m);
  check_raises_invalid "non-finite ready floor" (fun () ->
      RS.Snapshot.make ~ready:[ (0, Float.nan) ] g m);
  check_raises_invalid "frozen task out of range" (fun () ->
      RS.Snapshot.make ~frozen:[ frozen 99 0 0.0 2.0 ] g m);
  check_raises_invalid "frozen proc out of range" (fun () ->
      RS.Snapshot.make ~frozen:[ frozen 0 9 0.0 2.0 ] g m);
  check_raises_invalid "finish before start" (fun () ->
      RS.Snapshot.make ~frozen:[ frozen 0 0 3.0 2.0 ] g m);
  check_raises_invalid "negative start" (fun () ->
      RS.Snapshot.make ~frozen:[ frozen 0 0 (-1.0) 2.0 ] g m);
  check_raises_invalid "task frozen twice" (fun () ->
      RS.Snapshot.make ~frozen:[ frozen 0 0 0.0 2.0; frozen 0 1 0.0 2.0 ] g m);
  check_raises_invalid "prefix not closed under preds" (fun () ->
      (* t3's predecessor t0 is not frozen. *)
      RS.Snapshot.make ~frozen:[ frozen 3 0 2.0 5.0 ] g m);
  (* A frozen task on a dead processor is legitimate history. *)
  let s = RS.Snapshot.make ~dead:[ 1 ] ~frozen:[ frozen 0 1 0.0 2.0 ] g m in
  check_int "one task frozen" 7 (RS.Snapshot.frontier_size s)

(* --- Frontier size --- *)

let test_frontier () =
  let g = Example.fig1 () in
  let m = Machine.clique ~num_procs:2 in
  let empty = RS.Snapshot.make g m in
  check_int "empty snapshot: everything is frontier" 8
    (RS.Snapshot.frontier_size empty);
  let s =
    RS.Snapshot.make
      ~frozen:[ frozen 0 0 0.0 2.0; frozen 1 1 3.0 5.0; frozen 3 0 2.0 5.0 ]
      g m
  in
  check_int "frontier size excludes the prefix" 5 (RS.Snapshot.frontier_size s)

(* --- Seeding --- *)

let test_seed () =
  let g = Example.fig1 () in
  let m = Machine.clique ~num_procs:2 in
  let s =
    RS.Snapshot.make ~dead:[ 1 ]
      ~ready:[ (0, 6.0) ]
      ~frozen:[ frozen 0 0 0.0 2.0; frozen 1 1 3.0 5.0 ]
      g m
  in
  let sched = RS.Snapshot.seed s in
  check_bool "dead proc masked" false (Schedule.proc_alive sched 1);
  check_int "one proc left" 1 (Schedule.num_alive sched);
  check_bool "prefix pinned frozen" true
    (Schedule.is_frozen sched 0 && Schedule.is_frozen sched 1);
  check_float "frozen times preserved" 5.0 (Schedule.finish_time sched 1);
  check_float "live prt floored" 6.0 (Schedule.prt sched 0);
  check_int "only the prefix is scheduled" 2 (Schedule.num_scheduled sched);
  check_bool "frontier entries are ready" true
    (List.sort compare (Schedule.ready_tasks sched) = [ 2; 3; 4 ])

(* --- Rescheduling around a dead processor --- *)

let test_resched_masked_proc () =
  let g = Example.fig1 () in
  let m = Machine.clique ~num_procs:2 in
  let s =
    RS.Snapshot.make ~dead:[ 1 ]
      ~ready:[ (0, 5.0) ]
      ~frozen:[ frozen 0 0 0.0 2.0; frozen 1 1 3.0 5.0 ]
      g m
  in
  let sched = RS.Reschedule.run s in
  check_bool "complete" true (Schedule.is_complete sched);
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es));
  for t = 0 to Taskgraph.num_tasks g - 1 do
    if not (Schedule.is_frozen sched t) then
      check_int "new work only on the survivor" 0 (Schedule.proc sched t)
  done;
  check_bool "makespan finite" true (Float.is_finite (Schedule.makespan sched));
  check_raises_invalid "unknown algorithm" (fun () ->
      RS.Reschedule.run ~algo:"DSC-LLB" s)

(* --- The empty-snapshot identity, every resumable scheduler --- *)

let prop_empty_snapshot_reproduces (p, procs) =
  let g = build_dag p in
  let m = Machine.clique ~num_procs:procs in
  List.iter
    (fun (entry : RS.Registry.t) ->
      let fresh = entry.run g m in
      let resumed = RS.Reschedule.run ~algo:entry.name (RS.Snapshot.make g m) in
      for t = 0 to Taskgraph.num_tasks g - 1 do
        if
          Schedule.proc fresh t <> Schedule.proc resumed t
          || bits (Schedule.start_time fresh t)
             <> bits (Schedule.start_time resumed t)
          || bits (Schedule.finish_time fresh t)
             <> bits (Schedule.finish_time resumed t)
        then
          QCheck.Test.fail_reportf
            "%s diverges on task %d: fresh p%d [%h,%h], resumed p%d [%h,%h]"
            entry.name t (Schedule.proc fresh t)
            (Schedule.start_time fresh t)
            (Schedule.finish_time fresh t)
            (Schedule.proc resumed t)
            (Schedule.start_time resumed t)
            (Schedule.finish_time resumed t)
      done;
      if bits (Schedule.makespan fresh) <> bits (Schedule.makespan resumed) then
        QCheck.Test.fail_reportf "%s makespan drifts: %h vs %h"
          entry.name (Schedule.makespan fresh)
          (Schedule.makespan resumed))
    RS.Registry.resumable_set;
  true

(* Partial-history soundness: freeze a random prefix of FLB's own
   schedule, floor the survivors at the fault time, and the completed
   schedule must still validate and cover everything. *)
let prop_partial_history_valid (p, procs) =
  let g = build_dag p in
  let n = Taskgraph.num_tasks g in
  let m = Machine.clique ~num_procs:procs in
  let base = E.Registry.flb.E.Registry.run g m in
  let cut = Schedule.makespan base /. 2.0 in
  let frozen_tasks =
    List.filter (fun t -> Schedule.finish_time base t <= cut)
      (List.init n Fun.id)
  in
  let fr =
    List.map
      (fun t ->
        frozen t (Schedule.proc base t) (Schedule.start_time base t)
          (Schedule.finish_time base t))
      frozen_tasks
  in
  let dead = if procs > 1 then [ procs - 1 ] else [] in
  let ready =
    List.filteri (fun p _ -> p < procs - 1 || procs = 1)
      (List.init procs (fun p -> (p, cut)))
  in
  let s = RS.Snapshot.make ~dead ~ready ~frozen:fr g m in
  check_int "frontier + prefix = all" n
    (RS.Snapshot.frontier_size s + List.length frozen_tasks);
  let sched = RS.Reschedule.run s in
  if not (Schedule.is_complete sched) then
    QCheck.Test.fail_report "reschedule left tasks unscheduled";
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error es ->
    QCheck.Test.fail_reportf "invalid reschedule: %s" (String.concat "; " es));
  List.iter
    (fun t ->
      if bits (Schedule.finish_time sched t) <> bits (Schedule.finish_time base t)
      then QCheck.Test.fail_reportf "frozen task %d moved" t)
    frozen_tasks;
  true

(* --- Virtual-clock replays: exactness and recovery from kills --- *)

let test_virtual_resched_fig1 () =
  let g = Example.fig1 () in
  let m = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g m in
  let faults = Result.get_ok (R.Fault.parse "kill:1:0") in
  let o =
    R.Virtual_clock.run_static ~faults ~recover:(R.Engine.Resched "FLB") sched
  in
  check_bool "complete despite the kill" true (R.Virtual_clock.complete o);
  check_int "all eight ran" 8 o.R.Virtual_clock.completed;
  check_int "one domain died" 1 o.R.Virtual_clock.killed;
  check_int "one reschedule" 1 o.R.Virtual_clock.rescheds;
  check_float "rescheduled makespan" 19.0 o.R.Virtual_clock.makespan;
  check_int "the victim ran nothing" 0 o.R.Virtual_clock.per_domain_tasks.(1);
  let abandoned =
    R.Virtual_clock.run_static ~faults ~recover:R.Engine.No_recovery sched
  in
  check_bool "no recovery loses the cone" false
    (R.Virtual_clock.complete abandoned);
  check_bool "but terminates with partial progress" true
    (abandoned.R.Virtual_clock.completed > 0
    && abandoned.R.Virtual_clock.completed < 8)

let prop_static_policies_no_faults_match_simulator (p, procs) =
  let g = build_dag p in
  let m = Machine.clique ~num_procs:procs in
  List.iter
    (fun algo ->
      let sched = algo.E.Registry.run g m in
      match Flb_sim.Simulator.run sched with
      | Error _ ->
        QCheck.Test.fail_reportf "%s: simulator failed" algo.E.Registry.name
      | Ok sim ->
        List.iter
          (fun recover ->
            let v = R.Virtual_clock.run_static ~recover sched in
            if not (R.Virtual_clock.complete v) then
              QCheck.Test.fail_reportf "%s: incomplete without faults"
                algo.E.Registry.name;
            for t = 0 to Taskgraph.num_tasks g - 1 do
              if
                bits sim.Flb_sim.Simulator.start.(t)
                <> bits v.R.Virtual_clock.start.(t)
                || bits sim.Flb_sim.Simulator.finish.(t)
                   <> bits v.R.Virtual_clock.finish.(t)
              then
                QCheck.Test.fail_reportf
                  "%s (%s recovery) task %d: simulator [%h,%h] vs virtual \
                   [%h,%h]"
                  algo.E.Registry.name
                  (R.Engine.recovery_to_string recover)
                  t sim.Flb_sim.Simulator.start.(t)
                  sim.Flb_sim.Simulator.finish.(t)
                  v.R.Virtual_clock.start.(t)
                  v.R.Virtual_clock.finish.(t)
            done)
          [ R.Engine.No_recovery; R.Engine.Steal_queues; R.Engine.Resched "FLB" ])
    E.Registry.extended_set;
  true

(* The stealing disciplines need no recovery policy: a dead domain's
   deque stays stealable, so the survivor drains it. *)
let test_virtual_steal_kill_fig1 () =
  let g = Example.fig1 () in
  let faults = Result.get_ok (R.Fault.parse "kill:1:0") in
  let o = R.Virtual_clock.run_steal ~faults ~domains:2 g in
  check_float "makespan" 19.0 o.R.Virtual_clock.makespan;
  check_int "all eight ran" 8 o.R.Virtual_clock.completed;
  check_int "one domain died" 1 o.R.Virtual_clock.killed;
  check_int "the victim ran nothing" 0 o.R.Virtual_clock.per_domain_tasks.(1)

let test_virtual_affinity_kill_fig1 () =
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let faults = Result.get_ok (R.Fault.parse "kill:1:0") in
  let o = R.Virtual_clock.run_affinity ~faults sched in
  check_float "makespan" 20.0 o.R.Virtual_clock.makespan;
  check_int "all eight ran" 8 o.R.Virtual_clock.completed;
  check_int "one domain died" 1 o.R.Virtual_clock.killed;
  check_int "one task recovered from the dead deque" 1 o.R.Virtual_clock.recovered;
  check_int "by one steal" 1 o.R.Virtual_clock.steals

let arb_kill_case =
  QCheck.make
    ~print:(fun (p, domains, victim, frac) ->
      Printf.sprintf "%s on %d domains, domain %d killed at %.3f x predicted"
        (show_dag_params p) domains victim frac)
    QCheck.Gen.(
      int_range 2 5 >>= fun domains ->
      map3
        (fun p victim frac -> (p, domains, victim, frac))
        gen_dag_params
        (int_range 0 (domains - 1))
        (float_bound_inclusive 1.2))

(* One domain killed anywhere from the start to past the predicted end:
   both stealing replays still run every task, causally, and the
   affinity replay stays deterministic. *)
let prop_virtual_stealing_survives_a_kill (p, domains, victim, frac) =
  let g = build_dag p in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:domains) in
  let faults =
    [ R.Fault.Kill { domain = victim; at = frac *. Schedule.makespan sched } ]
  in
  let check what (o : R.Virtual_clock.outcome) =
    if not (R.Virtual_clock.complete o) then
      QCheck.Test.fail_reportf "%s: %d/%d tasks" what o.completed o.total;
    for t = 0 to Taskgraph.num_tasks g - 1 do
      Taskgraph.iter_preds g t (fun pd _ ->
          if o.start.(t) < o.finish.(pd) then
            QCheck.Test.fail_reportf
              "%s: task %d started before predecessor %d finished" what t pd)
    done
  in
  check "steal" (R.Virtual_clock.run_steal ~faults ~domains g);
  let a = R.Virtual_clock.run_affinity ~faults sched in
  let b = R.Virtual_clock.run_affinity ~faults sched in
  check "affinity" a;
  let all_bits xs = Array.map bits xs in
  if
    all_bits a.start <> all_bits b.start
    || all_bits a.finish <> all_bits b.finish
    || bits a.makespan <> bits b.makespan
    || a.exec_domain <> b.exec_domain
    || a.per_domain_tasks <> b.per_domain_tasks
    || (a.killed, a.recovered, a.steals, a.hint_hits, a.hint_misses)
       <> (b.killed, b.recovered, b.steals, b.hint_hits, b.hint_misses)
  then QCheck.Test.fail_report "affinity: repeated runs disagree";
  true

(* Ready floors bind every resumable scheduler: with both processors
   floored at 10, neither of two independent unit tasks may start
   before 10. ISH's gap search used to start at 0 and place both
   there. *)
let test_ready_floors_hold () =
  let g = Taskgraph.of_arrays ~comp:[| 1.0; 1.0 |] ~edges:[||] in
  let s =
    RS.Snapshot.make ~ready:[ (0, 10.0); (1, 10.0) ] g (Machine.clique ~num_procs:2)
  in
  List.iter
    (fun (entry : RS.Registry.t) ->
      let sched = RS.Reschedule.run ~algo:entry.name s in
      for t = 0 to 1 do
        if Schedule.start_time sched t < 10.0 then
          Alcotest.failf "%s starts task %d at %g, before the floor 10" entry.name t
            (Schedule.start_time sched t)
      done)
    RS.Registry.resumable_set

let suite =
  [
    Alcotest.test_case "snapshot: validation rejects bad inputs" `Quick
      test_snapshot_validation;
    Alcotest.test_case "snapshot: frontier extraction" `Quick test_frontier;
    Alcotest.test_case "snapshot: seeding pins history and masks" `Quick
      test_seed;
    Alcotest.test_case "reschedule completes around a dead proc" `Quick
      test_resched_masked_proc;
    Alcotest.test_case "virtual resched recovers fig1 kill (makespan 19)"
      `Quick test_virtual_resched_fig1;
    Alcotest.test_case "virtual steal drains fig1's killed domain (makespan 19)"
      `Quick test_virtual_steal_kill_fig1;
    Alcotest.test_case "virtual affinity steals fig1's killed domain (makespan 20)"
      `Quick test_virtual_affinity_kill_fig1;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        qtest ~count:40 "empty snapshot = from-scratch run, every scheduler"
          arb_scheduling_case prop_empty_snapshot_reproduces;
        qtest ~count:60 "partial history: reschedule valid and prefix pinned"
          arb_scheduling_case prop_partial_history_valid;
        qtest ~count:25 "every recovery policy at Fault.none = Simulator.run"
          arb_scheduling_case prop_static_policies_no_faults_match_simulator;
        qtest ~count:100 "virtual steal and affinity complete after a random kill"
          arb_kill_case prop_virtual_stealing_survives_a_kill;
      ]
  @ [
      Alcotest.test_case "ready floors hold for every resumable scheduler" `Quick
        test_ready_floors_hold;
    ]
