open! Flb_taskgraph
open! Flb_platform
open! Flb_sim
open Testutil

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  Event_queue.add q ~time:1.0 "a2";
  check_int "length" 4 (Event_queue.length q);
  Alcotest.(check (option (float 0.))) "peek" (Some 1.0) (Event_queue.peek_time q);
  let drained = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, x) ->
      drained := x :: !drained;
      drain ()
    | None -> ()
  in
  drain ();
  (* FIFO among equal timestamps *)
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b"; "c" ] (List.rev !drained);
  check_bool "empty" true (Event_queue.is_empty q)

let test_event_queue_errors () =
  let q = Event_queue.create () in
  check_raises_invalid "negative time" (fun () -> Event_queue.add q ~time:(-1.0) ());
  check_raises_invalid "nan time" (fun () -> Event_queue.add q ~time:Float.nan ())

let test_replay_fig1 () =
  let g = Example.fig1 () in
  let s = Flb_core.Flb.run g (Machine.clique ~num_procs:2) in
  match Simulator.run s with
  | Error _ -> Alcotest.fail "replay failed"
  | Ok o ->
    check_float "makespan" 14.0 o.Simulator.makespan;
    check_bool "agrees" true (Simulator.agrees_with_schedule s o);
    (* Cross-processor messages in the Table 1 schedule: t0->t1, t1->t5,
       t2->t6, t4->t7, t6->t7 cross; t0->t2, t0->t3, t3->t5, t5->t7 are
       local; t1->t4 is local on p1. *)
    check_int "messages" 5 o.Simulator.messages

let test_incomplete_schedule () =
  let g = small_graph () in
  let s = Schedule.create g (Machine.clique ~num_procs:2) in
  Schedule.assign s 0 ~proc:0 ~start:0.0;
  match Simulator.run s with
  | Error (Simulator.Incomplete_schedule missing) ->
    check_int "three tasks missing" 3 (List.length missing)
  | _ -> Alcotest.fail "expected Incomplete_schedule"

let test_deadlock_detection () =
  (* chain a -> b with both tasks on one processor but ordered b before a:
     the replay must report a deadlock, not hang or invent times *)
  let g = Taskgraph.of_arrays ~comp:[| 1.0; 1.0 |] ~edges:[| (0, 1, 1.0) |] in
  let m = Machine.clique ~num_procs:1 in
  match
    Simulator.replay_placement g m ~proc_of:(fun _ -> 0) ~order_on:(fun _ -> [ 1; 0 ])
  with
  | Error (Simulator.Deadlock stuck) ->
    check_bool "both stuck" true (List.length stuck = 2)
  | _ -> Alcotest.fail "expected Deadlock"

let test_bad_placement () =
  let g = small_graph () in
  let m = Machine.clique ~num_procs:2 in
  match
    Simulator.replay_placement g m ~proc_of:(fun t -> if t = 2 then 7 else 0)
      ~order_on:(fun _ -> [])
  with
  | Error (Simulator.Incomplete_schedule [ 2 ]) -> ()
  | _ -> Alcotest.fail "expected Incomplete_schedule [2]"

let test_comm_volume () =
  (* two tasks on different processors, one edge of cost 5 *)
  let g = Taskgraph.of_arrays ~comp:[| 1.0; 1.0 |] ~edges:[| (0, 1, 5.0) |] in
  let m = Machine.clique ~num_procs:2 in
  let s = Schedule.create g m in
  Schedule.assign s 0 ~proc:0 ~start:0.0;
  Schedule.assign s 1 ~proc:1 ~start:6.0;
  match Simulator.run s with
  | Ok o ->
    check_int "one message" 1 o.Simulator.messages;
    check_float "volume" 5.0 o.Simulator.comm_volume;
    check_float "makespan" 7.0 o.Simulator.makespan
  | Error _ -> Alcotest.fail "replay failed"

let test_contention_serializes_sends () =
  (* one producer fans out to three consumers on three other processors;
     with one port the three messages of cost 4 leave back to back *)
  let g =
    Taskgraph.of_arrays
      ~comp:[| 1.0; 1.0; 1.0; 1.0 |]
      ~edges:[| (0, 1, 4.0); (0, 2, 4.0); (0, 3, 4.0) |]
  in
  let m = Machine.clique ~num_procs:4 in
  let s = Schedule.create g m in
  Schedule.assign s 0 ~proc:0 ~start:0.0;
  Schedule.assign s 1 ~proc:1 ~start:5.0;
  Schedule.assign s 2 ~proc:2 ~start:5.0;
  Schedule.assign s 3 ~proc:3 ~start:5.0;
  (match Simulator.run s with
  | Ok o -> check_float "free: all arrive at 5" 6.0 o.Simulator.makespan
  | Error _ -> Alcotest.fail "free replay failed");
  (match Simulator.run ~send_ports:1 s with
  | Ok o ->
    (* departures at 1, 5, 9 -> last arrival 13, finish 14 *)
    check_float "1 port serializes" 14.0 o.Simulator.makespan
  | Error _ -> Alcotest.fail "1-port replay failed");
  (match Simulator.run ~send_ports:2 s with
  | Ok o ->
    (* departures at 1, 1, 5 -> last arrival 9, finish 10 *)
    check_float "2 ports" 10.0 o.Simulator.makespan
  | Error _ -> Alcotest.fail "2-port replay failed");
  check_raises_invalid "0 ports rejected" (fun () ->
      ignore (Simulator.run ~send_ports:0 s))

(* The central cross-check: every scheduler's claimed schedule replays in
   the discrete-event machine with identical start times (work-conserving
   schedulers) or not-later starts (insertion). *)
let all_work_conserving (g : Taskgraph.t) m =
  List.map
    (fun (a : Flb_experiments.Registry.t) -> (a.name, a.run g m))
    Flb_experiments.Registry.extended_set

let qsuite =
  [
    (* Adds (Some t) and pops (None) in any interleaving: every pop
       returns the pending event of least (time, insertion index). *)
    qtest ~count:300 "event queue pops in (time, insertion) order"
      QCheck.(list_of_size Gen.(int_bound 300) (option (int_range 0 20)))
      (fun ops ->
        let q = Event_queue.create () in
        let pending = ref [] and added = ref 0 in
        List.for_all
          (function
            | Some t ->
              let e = (float_of_int t, !added) in
              incr added;
              Event_queue.add q ~time:(fst e) e;
              pending := List.sort compare (e :: !pending);
              true
            | None -> (
              match (Event_queue.pop q, !pending) with
              | None, [] -> true
              | Some (time, e), first :: rest ->
                pending := rest;
                e = first && time = fst first
              | _ -> false))
          ops
        && Event_queue.length q = List.length !pending
        && List.for_all (fun e -> Option.map snd (Event_queue.pop q) = Some e) !pending
        && Event_queue.is_empty q);
    qtest ~count:100 "every scheduler's output replays exactly"
      arb_scheduling_case (fun (p, procs) ->
        let g = build_dag p in
        let m = Machine.clique ~num_procs:procs in
        List.for_all
          (fun (_name, s) ->
            match Simulator.run s with
            | Ok o -> Simulator.agrees_with_schedule s o
            | Error _ -> false)
          (all_work_conserving g m));
    qtest ~count:100 "contention never speeds anything up" arb_scheduling_case
      (fun (p, procs) ->
        let g = build_dag p in
        let m = Machine.clique ~num_procs:procs in
        let s = Flb_core.Flb.run g m in
        match (Simulator.run s, Simulator.run ~send_ports:1 s, Simulator.run ~send_ports:2 s) with
        | Ok free, Ok one, Ok two ->
          one.Simulator.makespan >= two.Simulator.makespan -. 1e-9
          && two.Simulator.makespan >= free.Simulator.makespan -. 1e-9
        | _ -> false);
    qtest ~count:100 "insertion MCP replays no later than claimed"
      arb_scheduling_case (fun (p, procs) ->
        let g = build_dag p in
        let m = Machine.clique ~num_procs:procs in
        let s = Flb_schedulers.Mcp.run ~insertion:true g m in
        match Simulator.run s with
        | Ok o ->
          o.Simulator.makespan <= Schedule.makespan s +. 1e-9
          && Array.for_all Fun.id
               (Array.init (Taskgraph.num_tasks g) (fun t ->
                    o.Simulator.start.(t) <= Schedule.start_time s t +. 1e-9))
        | Error _ -> false);
  ]

let suite =
  [
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue errors" `Quick test_event_queue_errors;
    Alcotest.test_case "replay fig1" `Quick test_replay_fig1;
    Alcotest.test_case "incomplete schedule" `Quick test_incomplete_schedule;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "bad placement" `Quick test_bad_placement;
    Alcotest.test_case "comm volume" `Quick test_comm_volume;
    Alcotest.test_case "send-port contention" `Quick test_contention_serializes_sends;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
