(* lib/runtime: real-domain execution engines, the deterministic virtual
   clock, the work-stealing deque, fault parsing, and the shared Workers
   lifecycle helper. The heart of the suite is the equivalence property:
   virtual-clock static execution reproduces the discrete-event simulator
   bit-for-bit, for every scheduler, on random DAGs. *)

open! Flb_taskgraph
open! Flb_platform
open Testutil
module R = Flb_runtime
module E = Flb_experiments

(* --- Deque --- *)

let test_deque_lifo_fifo () =
  let d = R.Deque.create () in
  check_bool "fresh empty" true (R.Deque.is_empty d);
  List.iter (R.Deque.push_back d) [ 1; 2; 3; 4 ];
  check_int "length" 4 (R.Deque.length d);
  check_int "owner pops LIFO" 4 (Option.get (R.Deque.pop_back d));
  check_int "thief takes FIFO" 1 (Option.get (R.Deque.take_front d));
  check_int "front again" 2 (Option.get (R.Deque.take_front d));
  check_int "back again" 3 (Option.get (R.Deque.pop_back d));
  check_bool "drained" true (R.Deque.is_empty d);
  check_bool "pop on empty" true (R.Deque.pop_back d = None);
  check_bool "take on empty" true (R.Deque.take_front d = None)

let test_deque_growth () =
  let d = R.Deque.create ~capacity:2 () in
  (* Interleave pushes and front-takes so the ring wraps while growing. *)
  for i = 0 to 99 do
    R.Deque.push_back d i;
    if i mod 3 = 0 then ignore (R.Deque.take_front d)
  done;
  let seen = ref [] in
  let rec drain () =
    match R.Deque.take_front d with
    | Some v ->
      seen := v :: !seen;
      drain ()
    | None -> ()
  in
  drain ();
  let seen = List.rev !seen in
  check_bool "FIFO order preserved across growth" true
    (List.sort_uniq compare seen = seen)

let test_deque_take_front_if () =
  let d = R.Deque.of_list [ 10; 11; 12 ] in
  check_bool "predicate false leaves the deque alone" true
    (R.Deque.take_front_if d (fun _ -> false) = None);
  check_int "nothing removed" 3 (R.Deque.length d);
  check_int "predicate true takes the front" 10
    (Option.get (R.Deque.take_front_if d (fun t -> t = 10)));
  check_bool "predicate sees the new front" true
    (R.Deque.take_front_if d (fun t -> t = 10) = None)

let drain_front d =
  let rec go acc =
    match R.Deque.take_front d with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

let test_deque_steal_half () =
  let d = R.Deque.create () in
  check_bool "empty deque yields nothing" true (R.Deque.steal_half d = []);
  R.Deque.push_back d 7;
  check_bool "a singleton is stolen whole" true (R.Deque.steal_half d = [ 7 ]);
  check_bool "left empty" true (R.Deque.is_empty d);
  List.iter (R.Deque.push_back d) [ 1; 2; 3; 4; 5 ];
  check_bool "odd length: ceiling half off the front, oldest first" true
    (R.Deque.steal_half d = [ 1; 2; 3 ]);
  check_int "the floor half remains" 2 (R.Deque.length d);
  check_bool "even length: exactly half" true (R.Deque.steal_half d = [ 4 ]);
  check_bool "back end untouched throughout" true
    (R.Deque.pop_back d = Some 5 && R.Deque.is_empty d)

let test_deque_push_front_batch () =
  let d = R.Deque.of_list [ 8; 9 ] in
  R.Deque.push_front_batch d [];
  check_int "empty batch is a no-op" 2 (R.Deque.length d);
  R.Deque.push_front_batch d [ 5; 6; 7 ];
  check_int "batch counted" 5 (R.Deque.length d);
  check_bool "batch lands in order ahead of the old front" true
    (drain_front d = [ 5; 6; 7; 8; 9 ]);
  (* Growth path: batch larger than the remaining capacity. *)
  let d = R.Deque.create ~capacity:2 () in
  R.Deque.push_back d 100;
  R.Deque.push_front_batch d (List.init 50 Fun.id);
  check_int "grown to fit" 51 (R.Deque.length d);
  check_bool "old back is still the back" true (R.Deque.pop_back d = Some 100);
  (* Reset interaction: a reset deque forgets batch history entirely. *)
  R.Deque.reset d [ 1; 2; 3 ];
  check_int "reset length" 3 (R.Deque.length d);
  check_bool "reset contents only" true
    (R.Deque.steal_half d = [ 1; 2 ] && R.Deque.pop_back d = Some 3)

(* --- Fault specs --- *)

let test_fault_parse_roundtrip () =
  let spec_s = "slow:1:2.5,stall:0:3:4,kill:2:10" in
  match R.Fault.parse spec_s with
  | Error e -> Alcotest.failf "parse failed: %s" (R.Fault.error_to_string e)
  | Ok spec ->
    Alcotest.(check string) "round trip" spec_s (R.Fault.to_string spec);
    check_bool "empty string is no faults" true (R.Fault.parse "" = Ok R.Fault.none);
    check_bool "bad kind rejected" true (Result.is_error (R.Fault.parse "melt:0:1"));
    check_bool "negative time rejected" true
      (Result.is_error (R.Fault.parse "kill:0:-1"));
    check_bool "zero slow factor rejected" true
      (Result.is_error (R.Fault.parse "slow:0:0"));
    check_bool "validate catches out-of-range domain" true
      (Result.is_error (R.Fault.validate spec ~domains:2));
    check_bool "validate accepts in-range" true
      (R.Fault.validate spec ~domains:3 = Ok ())

let test_fault_decide () =
  match R.Fault.parse "slow:0:2,slow:0:3,stall:0:5:2,kill:0:20" with
  | Error e -> Alcotest.failf "parse failed: %s" (R.Fault.error_to_string e)
  | Ok spec ->
    let df = R.Fault.for_domain spec 0 in
    check_float "slowdowns multiply" 6.0 df.R.Fault.slowdown;
    check_float "kill time" 20.0 df.R.Fault.kill_at;
    (match R.Fault.decide df ~now:0.0 with
    | R.Fault.Proceed s -> check_float "proceed with slowdown" 6.0 s
    | _ -> Alcotest.fail "expected Proceed at t=0");
    (match R.Fault.decide df ~now:6.0 with
    | R.Fault.Stall_until u -> check_float "stall until at+dur" 7.0 u
    | _ -> Alcotest.fail "expected Stall_until inside the window");
    (match R.Fault.decide df ~now:25.0 with
    | R.Fault.Die -> ()
    | _ -> Alcotest.fail "expected Die past kill time");
    let clean = R.Fault.for_domain spec 1 in
    check_float "other domains unaffected" 1.0 clean.R.Fault.slowdown;
    check_bool "other domains never die" true (clean.R.Fault.kill_at = infinity)

(* --- Calibration --- *)

let test_calibrate () =
  let cal = R.Calibrate.calibrate ~spins:20_000 () in
  check_bool "ns/spin floored" true (R.Calibrate.ns_per_spin cal >= 0.01);
  check_bool "ns/spin finite" true (Float.is_finite (R.Calibrate.ns_per_spin cal));
  (* Burning a budget takes at least a recognizable fraction of it. *)
  let t0 = Unix.gettimeofday () in
  R.Calibrate.burn cal ~ns:2e6;
  let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  check_bool "burn 2ms takes at least 0.2ms" true (dt_ns >= 2e5);
  R.Calibrate.burn R.Calibrate.instant ~ns:1e12;
  R.Calibrate.burn cal ~ns:(-5.0)
(* instant and negative burns return immediately *)

(* --- Workers --- *)

let test_workers () =
  let hits = Array.make 3 false in
  let w = Flb_prelude.Workers.spawn ~count:3 (fun i -> hits.(i) <- true) in
  check_int "count" 3 (Flb_prelude.Workers.count w);
  Flb_prelude.Workers.join w;
  check_bool "every worker ran with its index" true (Array.for_all Fun.id hits);
  Flb_prelude.Workers.join w;
  (* idempotent *)
  let seen = Atomic.make (-1) in
  let w =
    Flb_prelude.Workers.spawn ~count:2
      ~on_exn:(fun i _ -> Atomic.set seen i)
      (fun i -> if i = 1 then failwith "boom")
  in
  Flb_prelude.Workers.join w;
  check_int "exception contained and reported" 1 (Atomic.get seen);
  check_raises_invalid "count < 1" (fun () ->
      Flb_prelude.Workers.spawn ~count:0 (fun _ -> ()))

(* --- Engine config validation --- *)

let test_engine_validation () =
  let g = small_graph () in
  check_raises_invalid "domains < 1" (fun () ->
      R.Steal.run ~config:{ R.Engine.default_config with domains = 0 } g);
  check_raises_invalid "faults need unit_ns > 0" (fun () ->
      R.Steal.run
        ~config:
          {
            R.Engine.default_config with
            unit_ns = 0.0;
            faults = Result.get_ok (R.Fault.parse "kill:0:1");
          }
        g);
  check_raises_invalid "fault domain out of range" (fun () ->
      R.Steal.run
        ~config:
          {
            R.Engine.default_config with
            domains = 2;
            faults = Result.get_ok (R.Fault.parse "kill:5:1");
          }
        g);
  let machine = Machine.clique ~num_procs:2 in
  let sched = Schedule.create g machine in
  check_raises_invalid "incomplete schedule" (fun () ->
      Schedule.execution_order sched);
  let full = E.Registry.flb.E.Registry.run g machine in
  check_raises_invalid "domain count must match the schedule" (fun () ->
      R.Static.run ~config:{ R.Engine.default_config with domains = 3 } full)

(* --- Virtual clock vs the discrete-event simulator --- *)

let check_bitwise_equal ~what expected got =
  Array.iteri
    (fun t e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.(t) then
        Alcotest.failf "%s: task %d: simulator %h vs virtual clock %h" what t e
          got.(t))
    expected

let test_virtual_static_fig1 () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  check_float "fig1 FLB predicted makespan" 14.0 (Schedule.makespan sched);
  let v = R.Virtual_clock.run_static sched in
  match Flb_sim.Simulator.run sched with
  | Error _ -> Alcotest.fail "simulator failed to replay fig1"
  | Ok o ->
    check_bitwise_equal ~what:"start times" o.Flb_sim.Simulator.start
      v.R.Virtual_clock.start;
    check_bitwise_equal ~what:"finish times" o.Flb_sim.Simulator.finish
      v.R.Virtual_clock.finish;
    check_float "makespan" o.Flb_sim.Simulator.makespan v.R.Virtual_clock.makespan;
    check_float "virtual static fig1 makespan is the prediction" 14.0
      v.R.Virtual_clock.makespan

let prop_virtual_static_equals_simulator (p, procs) =
  let g = build_dag p in
  let machine = Machine.clique ~num_procs:procs in
  List.iter
    (fun (algo : E.Registry.t) ->
      let sched = algo.run g machine in
      match Flb_sim.Simulator.run sched with
      | Error _ ->
        QCheck.Test.fail_reportf "%s: simulator failed on %s" algo.name
          (show_dag_params p)
      | Ok o ->
        let v = R.Virtual_clock.run_static sched in
        Array.iteri
          (fun t e ->
            if
              Int64.bits_of_float e
              <> Int64.bits_of_float v.R.Virtual_clock.start.(t)
            then
              QCheck.Test.fail_reportf
                "%s: task %d starts at %h in the simulator, %h under the \
                 virtual clock (%s, P=%d)"
                algo.name t e
                v.R.Virtual_clock.start.(t)
                (show_dag_params p) procs)
          o.Flb_sim.Simulator.start)
    E.Registry.extended_set;
  true

let prop_steal_one_domain_is_sequential p =
  let g = build_dag p in
  let v = R.Virtual_clock.run_steal ~domains:1 g in
  let total = Taskgraph.total_comp g in
  check_int "one domain runs everything"
    (Taskgraph.num_tasks g)
    v.R.Virtual_clock.per_domain_tasks.(0);
  check_int "nothing to steal" 0 v.R.Virtual_clock.steals;
  (* Summation order differs (execution order vs task-id order), so the
     comparison is tolerance-based, not bitwise. *)
  Float.abs (v.R.Virtual_clock.makespan -. total)
  <= 1e-6 *. Float.max 1.0 (Float.abs total)

let prop_virtual_steal_valid (p, domains) =
  let g = build_dag p in
  let v = R.Virtual_clock.run_steal ~domains g in
  let n = Taskgraph.num_tasks g in
  (* Every task ran after its predecessors' finish (no causality hole). *)
  for t = 0 to n - 1 do
    Taskgraph.iter_preds g t (fun pd _ ->
        if v.R.Virtual_clock.start.(t) < v.R.Virtual_clock.finish.(pd) then
          QCheck.Test.fail_reportf "task %d started before predecessor %d finished"
            t pd)
  done;
  Array.fold_left ( + ) 0 v.R.Virtual_clock.per_domain_tasks = n

(* --- Virtual affinity: deterministic locality-aware stealing --- *)

let test_virtual_affinity_fig1 () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let v = R.Virtual_clock.run_affinity sched in
  let n = Taskgraph.num_tasks g in
  check_int "all tasks ran" n (Array.fold_left ( + ) 0 v.R.Virtual_clock.per_domain_tasks);
  check_int "every execution is a hit or a miss" n
    (v.R.Virtual_clock.hint_hits + v.R.Virtual_clock.hint_misses);
  for t = 0 to n - 1 do
    Taskgraph.iter_preds g t (fun pd _ ->
        check_bool
          (Printf.sprintf "task %d causal after %d" t pd)
          true
          (v.R.Virtual_clock.start.(t) >= v.R.Virtual_clock.finish.(pd)))
  done

let prop_affinity_one_domain_is_sequential p =
  let g = build_dag p in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:1) in
  let v = R.Virtual_clock.run_affinity sched in
  let total = Taskgraph.total_comp g in
  check_int "one domain runs everything"
    (Taskgraph.num_tasks g)
    v.R.Virtual_clock.per_domain_tasks.(0);
  check_int "nothing to steal" 0 v.R.Virtual_clock.steals;
  check_int "every hint honored" (Taskgraph.num_tasks g) v.R.Virtual_clock.hint_hits;
  (* Summation order differs (execution order vs task-id order), so the
     comparison is tolerance-based, not bitwise. *)
  Float.abs (v.R.Virtual_clock.makespan -. total)
  <= 1e-6 *. Float.max 1.0 (Float.abs total)

let prop_affinity_deterministic (p, procs) =
  let g = build_dag p in
  let machine = Machine.clique ~num_procs:procs in
  List.iter
    (fun (algo : E.Registry.t) ->
      let sched = algo.run g machine in
      let a = R.Virtual_clock.run_affinity sched in
      let b = R.Virtual_clock.run_affinity sched in
      Array.iteri
        (fun t s ->
          if Int64.bits_of_float s <> Int64.bits_of_float b.R.Virtual_clock.start.(t)
          then
            QCheck.Test.fail_reportf
              "%s: task %d starts at %h on the first run, %h on the second \
               (%s, P=%d)"
              algo.name t s
              b.R.Virtual_clock.start.(t)
              (show_dag_params p) procs)
        a.R.Virtual_clock.start;
      if
        Int64.bits_of_float a.R.Virtual_clock.makespan
        <> Int64.bits_of_float b.R.Virtual_clock.makespan
        || a.R.Virtual_clock.steals <> b.R.Virtual_clock.steals
        || a.R.Virtual_clock.hint_hits <> b.R.Virtual_clock.hint_hits
        || a.R.Virtual_clock.exec_domain <> b.R.Virtual_clock.exec_domain
      then
        QCheck.Test.fail_reportf "%s: repeated runs disagree (%s, P=%d)" algo.name
          (show_dag_params p) procs;
      (* While at it: the replay is causal and exhaustive. *)
      let n = Taskgraph.num_tasks g in
      for t = 0 to n - 1 do
        Taskgraph.iter_preds g t (fun pd _ ->
            if a.R.Virtual_clock.start.(t) < a.R.Virtual_clock.finish.(pd) then
              QCheck.Test.fail_reportf
                "%s: task %d started before predecessor %d finished" algo.name t
                pd)
      done;
      if a.R.Virtual_clock.hint_hits + a.R.Virtual_clock.hint_misses <> n then
        QCheck.Test.fail_reportf "%s: hint accounting does not cover every task"
          algo.name)
    E.Registry.extended_set;
  true

(* --- Golden replays ---

   Outcomes of the stealing replays (and of the static replay's three
   reactions to a kill) on Fig. 4's graphs at V ~ 150, recorded before
   the replays came to share one event loop. Each row pins the makespan's
   bits, completion, kills, steals, recoveries, reschedules, hint hits
   and misses, and a digest of every start and finish bit and executing
   domain. Domain 1 is killed at a third of the FLB prediction. The
   "steal kill" rows' recoveries were re-recorded when the steal replay
   began counting thefts from a dead victim; nothing else in them moved. *)

let replay_fingerprint (o : R.Virtual_clock.outcome) =
  let b = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) o.start;
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) o.finish;
  Array.iter (fun d -> Buffer.add_int32_le b (Int32.of_int d)) o.exec_domain;
  Printf.sprintf "%h %d/%d k%d s%d r%d x%d h%d/%d %s" o.makespan o.completed
    o.total o.killed o.steals o.recovered o.rescheds o.hint_hits o.hint_misses
    (String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12)

let golden_replays =
  [
    "steal LU P=2: 0x1.74742ccaf7277p+6 152/152 k0 s20 r0 x0 h132/20 a548a5cabece";
    "steal kill LU P=2: 0x1.f83949a81610ap+6 152/152 k1 s5 r1 x0 h147/5 97e7821f8915";
    "affinity LU P=2: 0x1.af3517cff654p+6 152/152 k0 s18 r0 x0 h136/16 e69093bcf735";
    "affinity kill LU P=2: 0x1.14eb4bc0286dp+7 152/152 k1 s6 r8 x0 h102/50 0761b0b233e6";
    "static kill none LU P=2: 0x1.4033f3383ecb6p+5 66/152 k1 s0 r0 x0 h66/0 c1fb0058c652";
    "static kill steal LU P=2: 0x1.f3bd32ac8de31p+6 152/152 k1 s0 r45 x0 h107/45 3e9b01a7a62e";
    "static kill resched LU P=2: 0x1.f3bd32ac8de3p+6 152/152 k1 s0 r0 x1 h152/0 8f478851ebf7";
    "steal LU P=4: 0x1.f26011b85ef3ep+5 152/152 k0 s43 r0 x0 h109/43 b28d9fb9a5bb";
    "steal kill LU P=4: 0x1.1e4f8e8e72aa8p+6 152/152 k1 s44 r3 x0 h108/44 7f062a555346";
    "affinity LU P=4: 0x1.6834607e742dp+6 152/152 k0 s27 r0 x0 h123/29 f287cfeb12ca";
    "affinity kill LU P=4: 0x1.72cce891274b2p+6 152/152 k1 s26 r1 x0 h107/45 7a87375ef828";
    "static kill none LU P=4: 0x1.8dbf36c4eaf4p+4 83/152 k1 s0 r0 x0 h83/0 f8236f19a3d8";
    "static kill steal LU P=4: 0x1.d6b0956d73953p+5 152/152 k1 s0 r18 x0 h134/18 5af0ace16644";
    "static kill resched LU P=4: 0x1.d36febefb6f47p+5 152/152 k1 s0 r0 x1 h152/0 1fc13d6b952c";
    "steal Stencil P=2: 0x1.7239bfe255192p+6 169/169 k0 s12 r0 x0 h157/12 3080c3570f3c";
    "steal kill Stencil P=2: 0x1.21e006e761f4dp+7 169/169 k1 s2 r2 x0 h167/2 102d885396ad";
    "affinity Stencil P=2: 0x1.0f781e5253d0ap+7 169/169 k0 s10 r0 x0 h157/12 41de5f9ed21c";
    "affinity kill Stencil P=2: 0x1.45bb97fa05448p+7 169/169 k1 s5 r5 x0 h107/62 281a0bf906b1";
    "static kill none Stencil P=2: 0x1.033c3302e1bf9p+5 62/169 k1 s0 r0 x0 h62/0 a84670a22d41";
    "static kill steal Stencil P=2: 0x1.16f2a54ac82c7p+7 169/169 k1 s0 r51 x0 h118/51 2d3d61ec1006";
    "static kill resched Stencil P=2: 0x1.16f2a54ac82c6p+7 169/169 k1 s0 r0 x1 h169/0 97f226556015";
    "steal Stencil P=4: 0x1.cece19af01e9cp+5 169/169 k0 s43 r0 x0 h126/43 75e1d1da7938";
    "steal kill Stencil P=4: 0x1.023b85c6220aep+6 169/169 k1 s36 r2 x0 h133/36 5c3ed81a9895";
    "affinity Stencil P=4: 0x1.53679f29e4d66p+6 169/169 k0 s25 r0 x0 h135/34 ed1acf9e7248";
    "affinity kill Stencil P=4: 0x1.9526c6af85e44p+6 169/169 k1 s31 r4 x0 h111/58 edebd3c10903";
    "static kill none Stencil P=4: 0x1.77e0e7ac49f08p+4 75/169 k1 s0 r0 x0 h75/0 d5ff31acb84e";
    "static kill steal Stencil P=4: 0x1.a3c5c1fd19f4bp+5 169/169 k1 s0 r30 x0 h139/30 57168a04390e";
    "static kill resched Stencil P=4: 0x1.9ad06f684063p+5 169/169 k1 s0 r0 x1 h169/0 5782f9594c12";
    "steal Laplace P=2: 0x1.a6d1d84963a46p+6 180/180 k0 s4 r0 x0 h176/4 20b6d40c96aa";
    "steal kill Laplace P=2: 0x1.58a8dd61c7732p+7 180/180 k1 s7 r7 x0 h173/7 b7cc53310cbf";
    "affinity Laplace P=2: 0x1.0f73826767a03p+7 180/180 k0 s6 r0 x0 h173/7 5b0959a89530";
    "affinity kill Laplace P=2: 0x1.713d087db8834p+7 180/180 k1 s1 r1 x0 h120/60 be6351a92452";
    "static kill none Laplace P=2: 0x1.b1940ed10f1dp+5 78/180 k1 s0 r0 x0 h78/0 66f3d8b61e97";
    "static kill steal Laplace P=2: 0x1.55d3dc1a49c55p+7 180/180 k1 s0 r58 x0 h122/58 8cd149e36dec";
    "static kill resched Laplace P=2: 0x1.55d3dc1a49c53p+7 180/180 k1 s0 r0 x1 h180/0 c1d4c1e51d4b";
    "steal Laplace P=4: 0x1.d61501fdd2477p+5 180/180 k0 s17 r0 x0 h163/17 811788550dd6";
    "steal kill Laplace P=4: 0x1.1b17cf7d13c83p+6 180/180 k1 s33 r4 x0 h147/33 e8c31a08cf61";
    "affinity Laplace P=4: 0x1.5227d7b26671p+6 180/180 k0 s12 r0 x0 h162/18 5eed4fe0696e";
    "affinity kill Laplace P=4: 0x1.8aab7e8c4d061p+6 180/180 k1 s20 r5 x0 h135/45 2aae84bfab9a";
    "static kill none Laplace P=4: 0x1.1a164043cf20ap+5 103/180 k1 s0 r0 x0 h103/0 454bf56d7f95";
    "static kill steal Laplace P=4: 0x1.fa5ea9d6ebaf8p+5 180/180 k1 s0 r29 x0 h151/29 404e9055c8ed";
    "static kill resched Laplace P=4: 0x1.fdab63b7b1f42p+5 180/180 k1 s0 r0 x1 h180/0 88d10042daa3";
  ]

let test_virtual_golden () =
  let rows =
    List.concat_map
      (fun (w : E.Workload_suite.workload) ->
        let g = E.Workload_suite.instance w ~ccr:1.0 ~seed:1 in
        List.concat_map
          (fun p ->
            let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:p) in
            let kill = [ R.Fault.Kill { domain = 1; at = Schedule.makespan sched /. 3.0 } ] in
            let row label o =
              Printf.sprintf "%s %s P=%d: %s" label w.E.Workload_suite.name p
                (replay_fingerprint o)
            in
            let static recover = R.Virtual_clock.run_static ~faults:kill ~recover sched in
            [
              row "steal" (R.Virtual_clock.run_steal ~domains:p g);
              row "steal kill" (R.Virtual_clock.run_steal ~faults:kill ~domains:p g);
              row "affinity" (R.Virtual_clock.run_affinity sched);
              row "affinity kill" (R.Virtual_clock.run_affinity ~faults:kill sched);
              row "static kill none" (static R.Engine.No_recovery);
              row "static kill steal" (static R.Engine.Steal_queues);
              row "static kill resched" (static (R.Engine.Resched "FLB"));
            ])
          [ 2; 4 ])
      (E.Workload_suite.fig4_suite ~tasks:150 ())
  in
  check_int "rows" (List.length golden_replays) (List.length rows);
  List.iter2 (fun expected got -> Alcotest.(check string) "replay" expected got)
    golden_replays rows

(* --- Real engines (kept small: the suite runs on one core) --- *)

let real_config ?(domains = 2) ?(unit_ns = 2000.0) ?faults () =
  let faults =
    match faults with
    | None -> R.Fault.none
    | Some s -> Result.get_ok (R.Fault.parse s)
  in
  { R.Engine.default_config with domains; unit_ns; faults }

let test_real_static_fig1 () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let o = R.Static.run ~config:(real_config ()) sched in
  check_bool "complete" true (R.Engine.complete o);
  check_float "predicted carried through" 14.0 o.R.Engine.predicted_units;
  check_bool "measured something" true (o.R.Engine.real_ns > 0.0);
  check_bool "ratio defined" true (Float.is_finite (R.Engine.ratio o));
  (* Placement is honored: per-domain counts match the schedule. *)
  Array.iteri
    (fun d n ->
      check_int
        (Printf.sprintf "tasks on domain %d" d)
        (List.length (Schedule.tasks_on sched d))
        n)
    o.R.Engine.per_domain_tasks;
  check_int "static never steals" 0 o.R.Engine.steals

let test_real_steal_four_domains () =
  let g = Example.fig1 () in
  let o = R.Steal.run ~config:(real_config ~domains:4 ()) g in
  check_bool "complete" true (R.Engine.complete o);
  check_int "all tasks ran exactly once" (Taskgraph.num_tasks g)
    (Array.fold_left ( + ) 0 o.R.Engine.per_domain_tasks);
  check_bool "no prediction" true (Float.is_nan o.R.Engine.predicted_units)

let test_real_static_kill_recovery () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let o = R.Static.run ~config:(real_config ~faults:"kill:1:0" ()) sched in
  check_bool "completes despite the kill" true (R.Engine.complete o);
  check_int "one domain died" 1 o.R.Engine.killed;
  check_int "victim ran nothing" 0 o.R.Engine.per_domain_tasks.(1);
  check_bool "its queue was recovered" true (o.R.Engine.recovered >= 1)

let test_real_static_resched_recovery () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let metrics = Flb_obs.Metrics.create () in
  let config =
    {
      (real_config ~faults:"kill:1:0" ()) with
      R.Engine.recover = R.Engine.Resched "FLB";
      metrics = Some metrics;
    }
  in
  let o = R.Static.run ~config sched in
  check_bool "completes despite the kill" true (R.Engine.complete o);
  check_int "one domain died" 1 o.R.Engine.killed;
  check_int "one reschedule" 1 o.R.Engine.rescheds;
  check_int "victim ran nothing" 0 o.R.Engine.per_domain_tasks.(1);
  let open Flb_obs.Metrics in
  check_int "rt_resched_total counted" 1
    (Counter.value (counter metrics "rt_resched_total"));
  check_bool "latency histogram observed once" true
    (Histogram.count (histogram metrics "rt_resched_latency_ns") = 1);
  check_raises_invalid "unknown resched algorithm rejected up front"
    (fun () ->
      R.Static.run
        ~config:{ config with R.Engine.recover = R.Engine.Resched "nope" }
        sched)

let test_real_steal_kill_recovery () =
  let g = Example.fig1 () in
  let o = R.Steal.run ~config:(real_config ~faults:"kill:0:0" ()) g in
  check_bool "completes despite the kill" true (R.Engine.complete o);
  check_int "one domain died" 1 o.R.Engine.killed;
  check_int "the survivor ran everything" (Taskgraph.num_tasks g)
    o.R.Engine.per_domain_tasks.(1)

let test_real_affinity_fig1 () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let o = R.Affinity.run ~config:(real_config ()) sched in
  check_bool "complete" true (R.Engine.complete o);
  check_float "predicted carried through" 14.0 o.R.Engine.predicted_units;
  check_int "all tasks ran exactly once" (Taskgraph.num_tasks g)
    (Array.fold_left ( + ) 0 o.R.Engine.per_domain_tasks);
  check_int "every execution is a hit or a miss" (Taskgraph.num_tasks g)
    (o.R.Engine.hint_hits + o.R.Engine.hint_misses);
  check_bool "hit rate defined" true (Float.is_finite (R.Engine.hint_hit_rate o));
  check_raises_invalid "domain count must match the schedule" (fun () ->
      R.Affinity.run ~config:(real_config ~domains:4 ()) sched)

let test_real_affinity_kill_recovery () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  (* Kill domain 0: it holds fig1's entry task as seed work, which can
     then only leave the dead deque by theft. (Whether that theft also
     counts as [recovered] races with the kill being registered, so only
     the steal itself is asserted.) *)
  let o = R.Affinity.run ~config:(real_config ~faults:"kill:0:0" ()) sched in
  check_bool "completes despite the kill" true (R.Engine.complete o);
  check_int "one domain died" 1 o.R.Engine.killed;
  check_int "victim ran nothing" 0 o.R.Engine.per_domain_tasks.(0);
  check_int "the survivor ran everything" (Taskgraph.num_tasks g)
    o.R.Engine.per_domain_tasks.(1);
  check_bool "the victim's seed work was stolen" true (o.R.Engine.steals >= 1)

let test_real_slowdown_and_stall () =
  let g = small_graph () in
  let o =
    R.Steal.run ~config:(real_config ~faults:"slow:0:4,stall:1:0:1" ()) g
  in
  check_bool "complete under slow+stall" true (R.Engine.complete o);
  check_int "nobody died" 0 o.R.Engine.killed

(* Run with an event log at a fresh temporary path and read it back. *)
let run_logged config run =
  let path = Filename.temp_file "flb-flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let o = run { config with R.Engine.flight_path = Some path } in
      (o, Result.get_ok (R.Analyze.load path)))

let test_observability () =
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let metrics = Flb_obs.Metrics.create () in
  let config = { (real_config ()) with R.Engine.metrics = Some metrics } in
  let o, run = run_logged config (fun config -> R.Static.run ~config sched) in
  check_bool "complete" true (R.Engine.complete o);
  check_int "one span per task" (Taskgraph.num_tasks g) (List.length run.R.Analyze.execs);
  (* one track per domain, holding the tasks the schedule placed there *)
  for d = 0 to 1 do
    check_int
      (Printf.sprintf "spans on track D%d" d)
      (List.length (Schedule.tasks_on sched d))
      (List.length (List.filter (fun (e : R.Analyze.exec) -> e.domain = d) run.execs))
  done;
  let open Flb_obs.Metrics in
  check_int "rt_tasks_total" (Taskgraph.num_tasks g)
    (Counter.value (counter metrics "rt_tasks_total"));
  check_float "rt_predicted_makespan_units" 14.0
    (Gauge.value (gauge metrics "rt_predicted_makespan_units"));
  check_bool "per-domain idle gauges registered" true
    (String.length (to_prometheus metrics) > 0
    && Gauge.value (gauge metrics "rt_busy_ns_d0") > 0.0)

let test_real_flight_dump_on_kill () =
  (* the event log a killed run leaves behind is a readable
     post-mortem *)
  let g = Example.fig1 () in
  let machine = Machine.clique ~num_procs:2 in
  let sched = E.Registry.flb.E.Registry.run g machine in
  let path = Filename.temp_file "flb-flight" ".jsonl" in
  let config =
    { (real_config ~faults:"kill:1:0" ()) with R.Engine.flight_path = Some path }
  in
  let o = R.Static.run ~config sched in
  check_bool "completes despite the kill" true (R.Engine.complete o);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let text =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check_bool "dump leads with a meta line" true (contains text "{\"type\":\"meta\"");
  check_bool "meta names the engine" true (contains text "\"engine\":\"static\"");
  check_bool "kill instant on the victim's ring" true
    (contains text "\"track\":\"D1\",\"name\":\"killed\"");
  check_bool "task spans recorded" true (contains text "\"name\":\"task ");
  (* and the dump feeds straight into the analyzer *)
  (match R.Analyze.load path with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match R.Analyze.analyze ~graph:g run with
    | Error e -> Alcotest.fail e
    | Ok report ->
      check_int "all tasks accounted for" 8 report.R.Analyze.executed;
      check_bool "victim flagged as killed" true
        report.R.Analyze.per_domain.(1).R.Analyze.d_killed;
      check_int "survivor recovered work" 8
        report.R.Analyze.per_domain.(0).R.Analyze.d_tasks));
  Sys.remove path

(* A steal, single or batch, is one [steal] instant in the run's event
   log, so Analyze counts every one of them. *)
let test_steals_traced () =
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  List.iter
    (fun (engine, run) ->
      (* Domain 0 dies at once holding fig1's entry task (both engines
         seed it there), so domain 1 must steal at least once. *)
      let o, dump = run_logged (real_config ~faults:"kill:0:0" ()) run in
      let what = Printf.sprintf "%s: %s" engine in
      check_bool (what "stole at least once") true (o.R.Engine.steals >= 1);
      check_int (what "dump steals = outcome steals") o.R.Engine.steals
        (List.length
           (List.filter (fun (m : R.Analyze.mark) -> m.mark_name = "steal") dump.marks));
      match R.Analyze.analyze ~graph:g dump with
      | Error e -> Alcotest.fail e
      | Ok report ->
        check_int (what "analyze counts every steal") o.R.Engine.steals
          (Array.fold_left
             (fun acc (d : R.Analyze.domain_stat) -> acc + d.d_steals)
             0 report.R.Analyze.per_domain))
    [
      ("steal", fun config -> R.Steal.run ~config g);
      ("affinity", fun config -> R.Affinity.run ~config sched);
    ]

(* LU V = 405 (the graph [flb gen -w lu -n 400] writes) on two domains,
   domain 1 killed part-way: the survivor runs its own queue and most of
   the victim's, well past 256 tasks, each with a recover instant. *)
let killed_lu_run () =
  let g =
    Flb_workloads.Weights.assign (E.Workload_suite.lu ~tasks:400 ()).E.Workload_suite.structure
      ~rng:(Flb_prelude.Rng.create ~seed:1) ~ccr:1.0
  in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let o, run =
    run_logged (real_config ~faults:"kill:1:60" ()) (fun config -> R.Static.run ~config sched)
  in
  check_bool "complete" true (R.Engine.complete o);
  check_int "domain 1 died" 1 o.R.Engine.killed;
  check_bool "over 256 tasks on domain 0" true (o.R.Engine.per_domain_tasks.(0) > 256);
  (g, o, run)

let test_log_holds_every_task () =
  let g, o, run = killed_lu_run () in
  match R.Analyze.analyze ~graph:g run with
  | Error e -> Alcotest.fail e
  | Ok report ->
    check_int "every executed task in the log" o.R.Engine.completed report.R.Analyze.executed;
    Array.iteri
      (fun d n ->
        check_int (Printf.sprintf "domain %d's spans" d) n
          report.R.Analyze.per_domain.(d).R.Analyze.d_tasks)
      o.R.Engine.per_domain_tasks;
    check_int "every recover instant" o.R.Engine.recovered
      report.R.Analyze.per_domain.(0).R.Analyze.d_recovers;
    check_bool "the victim is flagged" true report.R.Analyze.per_domain.(1).R.Analyze.d_killed

let test_log_one_clock () =
  let _, _, run = killed_lu_run () in
  let last_end =
    List.fold_left (fun m (e : R.Analyze.exec) -> Float.max m e.finish) 0.0 run.R.Analyze.execs
  in
  check_bool "a kill and recoveries were logged" true
    (List.exists (fun (m : R.Analyze.mark) -> m.mark_name = "killed") run.marks
    && List.exists (fun (m : R.Analyze.mark) -> m.mark_name = "recover") run.marks);
  List.iter
    (fun (m : R.Analyze.mark) ->
      if not (m.mark_ts >= 0.0 && m.mark_ts <= last_end) then
        Alcotest.failf "%s instant on D%d at %g s, outside [0, %g]" m.mark_name m.mark_domain
          m.mark_ts last_end)
    run.marks

let suite =
  [
    Alcotest.test_case "deque: owner LIFO, thief FIFO" `Quick test_deque_lifo_fifo;
    Alcotest.test_case "deque: ring growth keeps order" `Quick test_deque_growth;
    Alcotest.test_case "deque: conditional front take" `Quick
      test_deque_take_front_if;
    Alcotest.test_case "deque: steal-half splits off the front" `Quick
      test_deque_steal_half;
    Alcotest.test_case "deque: batch front push and reset" `Quick
      test_deque_push_front_batch;
    Alcotest.test_case "fault: parse/print round trip" `Quick
      test_fault_parse_roundtrip;
    Alcotest.test_case "fault: per-domain view and decisions" `Quick
      test_fault_decide;
    Alcotest.test_case "calibrate: spin-work burns real time" `Quick test_calibrate;
    Alcotest.test_case "workers: lifecycle and exception containment" `Quick
      test_workers;
    Alcotest.test_case "engine: config validation" `Quick test_engine_validation;
    Alcotest.test_case "virtual static = simulator on fig1 (bitwise)" `Quick
      test_virtual_static_fig1;
    Alcotest.test_case "virtual affinity: causal and fully accounted on fig1"
      `Quick test_virtual_affinity_fig1;
    Alcotest.test_case "static engine runs fig1 on 2 domains" `Quick
      test_real_static_fig1;
    Alcotest.test_case "steal engine runs fig1 on 4 domains" `Quick
      test_real_steal_four_domains;
    Alcotest.test_case "static engine recovers a killed domain's queue" `Quick
      test_real_static_kill_recovery;
    Alcotest.test_case "static engine reschedules around a killed domain"
      `Quick test_real_static_resched_recovery;
    Alcotest.test_case "steal engine drains a killed domain" `Quick
      test_real_steal_kill_recovery;
    Alcotest.test_case "affinity engine runs fig1 on 2 domains" `Quick
      test_real_affinity_fig1;
    Alcotest.test_case "affinity engine steals a killed domain's work" `Quick
      test_real_affinity_kill_recovery;
    Alcotest.test_case "slowdown and stall faults still complete" `Quick
      test_real_slowdown_and_stall;
    Alcotest.test_case "tracer tracks and rt_* metrics" `Quick test_observability;
    Alcotest.test_case "flight recorder dumps on a kill" `Quick
      test_real_flight_dump_on_kill;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        qtest ~count:40 "virtual static = simulator, every scheduler"
          arb_scheduling_case prop_virtual_static_equals_simulator;
        qtest ~count:100 "virtual steal, 1 domain = sequential sum" arb_dag_params
          prop_steal_one_domain_is_sequential;
        qtest ~count:100 "virtual steal: causal and exhaustive"
          arb_scheduling_case prop_virtual_steal_valid;
        qtest ~count:100 "virtual affinity, 1 domain = sequential sum"
          arb_dag_params prop_affinity_one_domain_is_sequential;
        qtest ~count:40 "virtual affinity: bit-identical replays, every scheduler"
          arb_scheduling_case prop_affinity_deterministic;
      ]
  (* New cases go last, so the ones above keep their index in the report. *)
  @ [
    Alcotest.test_case "steals: one instant each, in trace and dump" `Quick
      test_steals_traced;
    Alcotest.test_case "virtual replays match recorded golden outcomes" `Quick
      test_virtual_golden;
    Alcotest.test_case "event log holds every task of a killed run" `Quick
      test_log_holds_every_task;
    Alcotest.test_case "event log instants lie within the run's spans" `Quick
      test_log_one_clock;
  ]
