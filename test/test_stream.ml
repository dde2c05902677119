(* lib/stream: streaming/online DAG scheduling. The anchor property is
   the streaming analogue of PR 5's empty-snapshot pin: a stream fed its
   whole graph and sealed before the first tick goes through exactly one
   round with no frozen history and no floors, so it must reproduce the
   one-shot scheduler bit for bit — the streaming path and the one-shot
   path are the same code. The second invariant is the frozen prefix:
   once a placement is announced it never moves, whatever arrives
   later. *)

open! Flb_taskgraph
open! Flb_platform
open Testutil
module SG = Flb_stream.Stream_graph
module SL = Flb_stream.Scheduler_loop
module Chunk = Flb_stream.Chunk
module RS = Flb_reschedule
module E = Flb_experiments

let bits = Int64.bits_of_float

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (SL.error_to_string e)

let graph_comps g = Array.init (Taskgraph.num_tasks g) (Taskgraph.comp g)

let graph_edges g =
  let acc = ref [] in
  Taskgraph.iter_edges (fun s d c -> acc := (s, d, c) :: !acc) g;
  Array.of_list (List.rev !acc)

(* Feed a whole graph through one stream and seal, in exactly one round.
   That round runs on [add_edges] once the graph reaches [batch_tasks],
   else on [seal], so the placements of every call are collected. *)
let stream_whole loop ~algo ~procs g =
  let id = ok (SL.open_stream loop ~algo ~procs) in
  let first, added = ok (SL.add_tasks loop ~stream:id ~comps:(graph_comps g)) in
  Alcotest.(check int) "ids start at 0" 0 first;
  let edged = ok (SL.add_edges loop ~stream:id ~edges:(graph_edges g)) in
  let sealed = ok (SL.seal loop ~stream:id) in
  Alcotest.(check int) "one round" 1 sealed.SL.round;
  {
    sealed with
    SL.placements =
      Array.concat [ added.SL.placements; edged.SL.placements; sealed.SL.placements ];
  }

let placements_by_task (p : SL.progress) extra =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun (pl : SL.placement) -> Hashtbl.replace tbl pl.task pl)
    (Array.concat [ extra; p.placements ]);
  tbl

(* --- Stream_graph: structured errors, never exceptions --- *)

let test_graph_errors () =
  let sg = SG.create () in
  Alcotest.(check int) "first batch at 0" 0
    (Result.get_ok (SG.add_tasks sg ~comps:[| 1.0; 2.0 |]));
  Alcotest.(check int) "second batch appended" 2
    (Result.get_ok (SG.add_tasks sg ~comps:[| 3.0 |]));
  let expect_err name want got =
    match got with
    | Ok _ -> Alcotest.failf "%s: expected %s" name (SG.error_to_string want)
    | Error e ->
      Alcotest.(check string) name (SG.error_to_string want)
        (SG.error_to_string e)
  in
  expect_err "bad comp weight" (SG.Bad_weight (-1.0))
    (SG.add_tasks sg ~comps:[| -1.0 |]);
  expect_err "unknown src" (SG.Unknown_task 9)
    (SG.add_edge sg ~src:9 ~dst:0 ~comm:1.0);
  expect_err "unknown dst" (SG.Unknown_task (-1))
    (SG.add_edge sg ~src:0 ~dst:(-1) ~comm:1.0);
  expect_err "self edge" (SG.Self_edge 1) (SG.add_edge sg ~src:1 ~dst:1 ~comm:1.0);
  expect_err "bad comm" (SG.Bad_weight Float.infinity)
    (SG.add_edge sg ~src:0 ~dst:1 ~comm:Float.infinity);
  Alcotest.(check unit) "good edge" ()
    (Result.get_ok (SG.add_edge sg ~src:0 ~dst:1 ~comm:1.0));
  expect_err "duplicate edge" (SG.Duplicate_edge (0, 1))
    (SG.add_edge sg ~src:0 ~dst:1 ~comm:2.0);
  SG.mark_dispatched sg 2;
  expect_err "edge into dispatched" (SG.Edge_into_dispatched 2)
    (SG.add_edge sg ~src:0 ~dst:2 ~comm:1.0);
  Alcotest.(check unit) "edge out of dispatched is fine" ()
    (Result.get_ok (SG.add_edge sg ~src:2 ~dst:1 ~comm:1.0));
  Alcotest.(check int) "pending excludes dispatched" 2 (SG.pending sg);
  Alcotest.(check unit) "acyclic so far" ()
    (Result.get_ok (SG.check_acyclic sg));
  Alcotest.(check unit) "seal succeeds" () (Result.get_ok (SG.seal sg));
  Alcotest.(check bool) "sealed" true (SG.sealed sg);
  expect_err "append after seal" SG.Sealed (SG.add_tasks sg ~comps:[| 1.0 |])

let test_graph_cycle () =
  let sg = SG.create () in
  ignore (Result.get_ok (SG.add_tasks sg ~comps:[| 1.0; 1.0; 1.0 |]));
  List.iter
    (fun (s, d) -> ignore (Result.get_ok (SG.add_edge sg ~src:s ~dst:d ~comm:0.5)))
    [ (0, 1); (1, 2); (2, 0) ];
  (match SG.check_acyclic sg with
  | Error (SG.Cyclic _) -> ()
  | _ -> Alcotest.fail "cycle not detected");
  (match SG.seal sg with
  | Error (SG.Cyclic _) -> ()
  | _ -> Alcotest.fail "seal accepted a cycle");
  Alcotest.(check bool) "left unsealed" false (SG.sealed sg)

let test_graph_snapshot_roundtrip () =
  let g = Example.fig1 () in
  let sg = SG.create () in
  ignore (Result.get_ok (SG.add_tasks sg ~comps:(graph_comps g)));
  Array.iter
    (fun (s, d, c) ->
      ignore (Result.get_ok (SG.add_edge sg ~src:s ~dst:d ~comm:c)))
    (graph_edges g);
  let b = Taskgraph.Builder.create () in
  Alcotest.(check int) "appended at task 0" 0 (SG.append_to sg b);
  Alcotest.(check string) "graph round-trips through Serial"
    (Serial.to_string g) (Serial.to_string (Taskgraph.Builder.build b))

(* --- One sealed round == one-shot, every resumable scheduler --- *)

let prop_sealed_round_is_one_shot (p, procs) =
  let g = build_dag p in
  List.iter
    (fun entry ->
      let name = entry.RS.Reschedule.name in
      let reg =
        match E.Registry.find name with
        | Some r -> r
        | None -> QCheck.Test.fail_reportf "%s not in the registry" name
      in
      let m = Machine.clique ~num_procs:procs in
      let fresh = reg.E.Registry.run g m in
      let loop = SL.create SL.default_config in
      let final = stream_whole loop ~algo:name ~procs g in
      if not final.SL.final then QCheck.Test.fail_report "seal not final";
      if Array.length final.SL.placements <> Taskgraph.num_tasks g then
        QCheck.Test.fail_reportf "%s: %d placements for %d tasks" name
          (Array.length final.SL.placements)
          (Taskgraph.num_tasks g);
      Array.iter
        (fun (pl : SL.placement) ->
          if
            pl.proc <> Schedule.proc fresh pl.task
            || bits pl.start <> bits (Schedule.start_time fresh pl.task)
            || bits pl.finish <> bits (Schedule.finish_time fresh pl.task)
          then
            QCheck.Test.fail_reportf
              "%s diverges on task %d: stream p%d [%h,%h], one-shot p%d [%h,%h]"
              name pl.task pl.proc pl.start pl.finish
              (Schedule.proc fresh pl.task)
              (Schedule.start_time fresh pl.task)
              (Schedule.finish_time fresh pl.task))
        final.SL.placements;
      if bits final.SL.makespan <> bits (Schedule.makespan fresh) then
        QCheck.Test.fail_reportf "%s makespan drifts: %h vs %h" name
          final.SL.makespan (Schedule.makespan fresh))
    RS.Reschedule.entries;
  true

(* A graph of [batch_tasks] (32) tasks or more is placed by the round
   [add_edges] triggers, leaving nothing for [seal]. *)
let test_sealed_round_at_batch_size () =
  let p =
    { layers = 7; max_width = 6; edge_probability = 0.81; ccr = 3.11; seed = 20253 }
  in
  Alcotest.(check bool) "reaches batch_tasks" true
    (Taskgraph.num_tasks (build_dag p) >= SL.default_config.SL.batch_tasks);
  Alcotest.(check bool) "one-shot on 1 proc" true (prop_sealed_round_is_one_shot (p, 1))

(* --- fig1 in two batches: >= 2 rounds, frozen prefix, makespan --- *)

let test_fig1_two_batches () =
  let g = Example.fig1 () in
  let loop = SL.create SL.default_config in
  let id = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  (* Batch 1: tasks 0-3 and their mutual edges. *)
  let comps = graph_comps g in
  ignore (ok (SL.add_tasks loop ~stream:id ~comps:(Array.sub comps 0 4)));
  let edges_into lo hi =
    Array.of_list
      (List.filter (fun (_, d, _) -> d >= lo && d < hi)
         (Array.to_list (graph_edges g)))
  in
  ignore (ok (SL.add_edges loop ~stream:id ~edges:(edges_into 0 4)));
  let p1 = ok (SL.poll loop ~stream:id) in
  Alcotest.(check int) "batch 1 dispatched" 4 (Array.length p1.SL.placements);
  Alcotest.(check int) "one round so far" 1 p1.SL.round;
  (* Batch 2: tasks 4-7, edges from both batches. *)
  ignore (ok (SL.add_tasks loop ~stream:id ~comps:(Array.sub comps 4 4)));
  ignore (ok (SL.add_edges loop ~stream:id ~edges:(edges_into 4 8)));
  let final = ok (SL.seal loop ~stream:id) in
  Alcotest.(check bool) "final" true final.SL.final;
  Alcotest.(check int) "batch 2 dispatched" 4 (Array.length final.SL.placements);
  Alcotest.(check bool) "at least two rounds" true (final.SL.round >= 2);
  (* The frozen prefix never moves: batch 1 placements are immutable. *)
  let all = placements_by_task final p1.SL.placements in
  Array.iter
    (fun (pl : SL.placement) ->
      let again = Hashtbl.find all pl.task in
      Alcotest.(check bool) "prefix pinned" true (again = pl))
    p1.SL.placements;
  Alcotest.(check int) "every task placed exactly once" 8 (Hashtbl.length all);
  (* Batch 1 alone is scheduled without lookahead; FLB still lands the
     full Fig. 1 graph on the Table 1 schedule length. *)
  Alcotest.(check (float 1e-9)) "fig1 streamed makespan" 14.0 final.SL.makespan

(* --- Two concurrent clients merge into one super-DAG round --- *)

let test_two_streams_batch () =
  let loop = SL.create { SL.default_config with batch_tasks = 1000 } in
  let a = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  let b = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  let chain id =
    ignore (ok (SL.add_tasks loop ~stream:id ~comps:[| 2.0; 3.0 |]));
    ignore
      (ok (SL.add_edges loop ~stream:id ~edges:[| (0, 1, 1.0) |]))
  in
  chain a;
  chain b;
  let pa = ok (SL.poll loop ~stream:a) in
  Alcotest.(check int) "both streams in the round" 2
    (SL.last_batch_streams loop);
  Alcotest.(check int) "a fully placed" 2 (Array.length pa.SL.placements);
  let pb = ok (SL.poll loop ~stream:b) in
  Alcotest.(check int) "b fully placed" 2 (Array.length pb.SL.placements);
  Alcotest.(check int) "one shared round" 1 (SL.rounds loop);
  (* Shared machine: the two chains must not overlap on a processor. *)
  let busy = Hashtbl.create 8 in
  Array.iter
    (fun (pl : SL.placement) ->
      Hashtbl.add busy pl.proc (pl.start, pl.finish))
    (Array.append pa.SL.placements pb.SL.placements);
  Hashtbl.iter
    (fun p (s1, f1) ->
      Hashtbl.iter
        (fun p' (s2, f2) ->
          if p = p' && (s1, f1) <> (s2, f2) && s1 < f2 && s2 < f1 then
            Alcotest.failf "overlap on proc %d: [%g,%g] vs [%g,%g]" p s1 f1 s2
              f2)
        busy)
    busy

(* Group floors survive a drained stream: a second wave starting after
   the first drained must not be scheduled below the busy timeline. *)
let test_floors_survive_drain () =
  let loop = SL.create SL.default_config in
  let a = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  let b = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  ignore (ok (SL.add_tasks loop ~stream:a ~comps:[| 5.0; 5.0 |]));
  let fa = ok (SL.seal loop ~stream:a) in
  Alcotest.(check (float 1e-9)) "wave 1 spans both procs" 5.0 fa.SL.makespan;
  ignore (ok (SL.add_tasks loop ~stream:b ~comps:[| 1.0 |]));
  let fb = ok (SL.seal loop ~stream:b) in
  let pl = fb.SL.placements.(0) in
  Alcotest.(check bool) "wave 2 starts after wave 1's floor" true
    (pl.SL.start >= 5.0);
  (* Last member gone: the group timeline resets for new traffic. *)
  let c = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  ignore (ok (SL.add_tasks loop ~stream:c ~comps:[| 1.0 |]));
  let fc = ok (SL.seal loop ~stream:c) in
  Alcotest.(check (float 1e-9)) "fresh group starts at zero" 0.0
    fc.SL.placements.(0).SL.start

(* --- Poisoned stream: cycle reported as a structured error --- *)

let test_cyclic_stream_poisoned () =
  let loop = SL.create SL.default_config in
  let id = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  ignore (ok (SL.add_tasks loop ~stream:id ~comps:[| 1.0; 1.0 |]));
  ignore
    (ok (SL.add_edges loop ~stream:id ~edges:[| (0, 1, 1.0) |]));
  (* The reverse edge closes a cycle; the poll's round detects it. *)
  ignore (ok (SL.add_edges loop ~stream:id ~edges:[| (1, 0, 1.0) |]));
  (match SL.poll loop ~stream:id with
  | Error (SL.Rejected (SG.Cyclic _)) -> ()
  | Ok _ -> Alcotest.fail "cyclic stream still scheduled"
  | Error e -> Alcotest.failf "wrong error: %s" (SL.error_to_string e));
  (match SL.poll loop ~stream:id with
  | Error (SL.Unknown_stream _) -> ()
  | _ -> Alcotest.fail "poisoned stream not closed")

(* --- Admission control and idle eviction --- *)

let test_admission_and_eviction () =
  let loop =
    SL.create { SL.default_config with max_streams = 1; idle_timeout_s = 10.0 }
  in
  let a = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  (match SL.open_stream loop ~algo:"FLB" ~procs:2 with
  | Error (SL.Too_many_streams 1) -> ()
  | _ -> Alcotest.fail "admission limit not enforced");
  (match SL.open_stream loop ~algo:"NOPE" ~procs:2 with
  | Error (SL.Failed _) -> ()
  | _ -> Alcotest.fail "unknown algorithm accepted");
  (match SL.open_stream loop ~algo:"FLB" ~procs:0 with
  | Error (SL.Failed _) -> ()
  | _ -> Alcotest.fail "procs 0 accepted");
  ignore (ok (SL.add_tasks loop ~stream:a ~comps:[| 1.0 |]));
  (* Idle past the timeout: the sweep evicts and frees the slot. *)
  SL.maybe_tick loop ~now:(Unix.gettimeofday () +. 3600.0);
  Alcotest.(check int) "evicted" 0 (SL.active_streams loop);
  (match SL.poll loop ~stream:a with
  | Error (SL.Unknown_stream _) -> ()
  | _ -> Alcotest.fail "evicted stream still answers");
  ignore (ok (SL.open_stream loop ~algo:"FLB" ~procs:2))

(* --- Chunk.plan: topological batches a client can replay safely --- *)

let test_chunk_plan () =
  let g = Example.fig1 () in
  let n = Taskgraph.num_tasks g in
  let check_plan chunks =
    let batches = Chunk.plan ~chunks g in
    Alcotest.(check int)
      (Printf.sprintf "%d chunks clamp to the task count" chunks)
      (min chunks n) (List.length batches);
    (* Concatenated comps are the graph's, in stream (topological)
       order; every edge ships in its destination's batch, with the
       source at a same-or-earlier stream position. *)
    let ord = Chunk.order g in
    let pos = ref 0 in
    let edges_total = ref 0 in
    List.iter
      (fun { Chunk.comps; edges } ->
        let lo = !pos in
        Array.iteri
          (fun i c ->
            Alcotest.(check (float 0.0)) "comp in stream order"
              (Taskgraph.comp g ord.(lo + i))
              c)
          comps;
        pos := lo + Array.length comps;
        Array.iter
          (fun (src, dst, _) ->
            edges_total := !edges_total + 1;
            Alcotest.(check bool) "dst lands in this batch" true
              (dst >= lo && dst < !pos);
            Alcotest.(check bool) "src already streamed" true
              (src >= 0 && src < !pos))
          edges)
      batches;
    Alcotest.(check int) "every task shipped" n !pos;
    Alcotest.(check int) "every edge shipped" (Taskgraph.num_edges g)
      !edges_total
  in
  List.iter check_plan [ 1; 2; 3; n; 2 * n ];
  Alcotest.check_raises "chunks < 1 rejected"
    (Invalid_argument "Chunk.plan: chunks must be >= 1") (fun () ->
      ignore (Chunk.plan ~chunks:0 g));
  let empty = Taskgraph.Builder.build (Taskgraph.Builder.create ()) in
  Alcotest.(check int) "empty graph plans to no batches" 0
    (List.length (Chunk.plan empty))

(* A client replaying Chunk.plan — add_tasks, add_edges, poll per
   batch — must never see Edge_rejected and must end fully placed,
   whatever DAG, chunk count or (threshold-triggering) batch size. *)
let prop_chunked_stream_completes (p, procs) =
  let g = build_dag p in
  let n = Taskgraph.num_tasks g in
  let chunks = 1 + (n mod 5) in
  let okq = function
    | Ok v -> v
    | Error e ->
      QCheck.Test.fail_reportf "chunked stream hit: %s" (SL.error_to_string e)
  in
  let loop = SL.create { SL.default_config with batch_tasks = 4 } in
  let id = okq (SL.open_stream loop ~algo:"FLB" ~procs) in
  let seen = Hashtbl.create 64 in
  let note (pr : SL.progress) =
    Array.iter
      (fun (pl : SL.placement) ->
        if Hashtbl.mem seen pl.SL.task then
          QCheck.Test.fail_reportf "task %d placed twice" pl.SL.task;
        Hashtbl.replace seen pl.SL.task pl)
      pr.SL.placements
  in
  List.iter
    (fun { Chunk.comps; edges } ->
      ignore (okq (SL.add_tasks loop ~stream:id ~comps));
      if Array.length edges > 0 then
        note (okq (SL.add_edges loop ~stream:id ~edges));
      note (okq (SL.poll loop ~stream:id)))
    (Chunk.plan ~chunks g);
  let final = okq (SL.seal loop ~stream:id) in
  note final;
  if not final.SL.final then QCheck.Test.fail_report "seal not final";
  if Hashtbl.length seen <> n then
    QCheck.Test.fail_reportf "%d of %d tasks placed" (Hashtbl.length seen) n;
  (* The reported makespan is the max finish over the placements. *)
  let max_finish =
    Hashtbl.fold (fun _ (pl : SL.placement) acc -> Float.max pl.SL.finish acc)
      seen 0.0
  in
  if bits final.SL.makespan <> bits max_finish then
    QCheck.Test.fail_reportf "makespan %h but max finish %h" final.SL.makespan
      max_finish;
  true

(* The periodic timer places pending work without any client call. *)
let test_timer_tick () =
  let loop = SL.create { SL.default_config with tick_period_s = 0.0 } in
  let id = ok (SL.open_stream loop ~algo:"FLB" ~procs:2) in
  ignore (ok (SL.add_tasks loop ~stream:id ~comps:[| 1.0; 2.0 |]));
  Alcotest.(check int) "nothing placed yet" 0 (SL.rounds loop);
  SL.maybe_tick loop ~now:(Unix.gettimeofday ());
  Alcotest.(check int) "timer ran a round" 1 (SL.rounds loop);
  let p = ok (SL.poll loop ~stream:id) in
  Alcotest.(check int) "placements waited in the outbox" 2
    (Array.length p.SL.placements)

let suite =
  [
    Alcotest.test_case "stream graph: structured append errors" `Quick
      test_graph_errors;
    Alcotest.test_case "stream graph: cycle check on seal" `Quick
      test_graph_cycle;
    Alcotest.test_case "stream graph: snapshot/frontier round-trip" `Quick
      test_graph_snapshot_roundtrip;
    Alcotest.test_case "sealed stream of batch_tasks tasks = one-shot" `Quick
      test_sealed_round_at_batch_size;
    Alcotest.test_case "fig1 in two batches: frozen prefix, makespan 14"
      `Quick test_fig1_two_batches;
    Alcotest.test_case "two clients share one super-DAG round" `Quick
      test_two_streams_batch;
    Alcotest.test_case "group floors survive a drained stream" `Quick
      test_floors_survive_drain;
    Alcotest.test_case "cyclic stream is poisoned with a structured error"
      `Quick test_cyclic_stream_poisoned;
    Alcotest.test_case "admission control and idle eviction" `Quick
      test_admission_and_eviction;
    Alcotest.test_case "timer tick places pending work" `Quick test_timer_tick;
    Alcotest.test_case "chunk plan: topological batches, every edge with its \
                        destination" `Quick test_chunk_plan;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        qtest ~count:40 "sealed stream in one round = one-shot, every scheduler"
          arb_scheduling_case prop_sealed_round_is_one_shot;
        qtest ~count:60 "chunked streaming always completes, never rejected"
          arb_scheduling_case prop_chunked_stream_completes;
      ]
