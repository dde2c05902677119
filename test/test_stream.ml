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
  SG.dispatch sg;
  Alcotest.(check int) "a round dispatched every task" 3
    (Result.get_ok (SG.add_tasks sg ~comps:[| 4.0 |]));
  expect_err "edge into dispatched" (SG.Edge_into_dispatched 2)
    (SG.add_edge sg ~src:0 ~dst:2 ~comm:1.0);
  Alcotest.(check unit) "edge out of dispatched is fine" ()
    (Result.get_ok (SG.add_edge sg ~src:2 ~dst:3 ~comm:1.0));
  Alcotest.(check int) "pending excludes dispatched" 1 (SG.pending sg);
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

(* Merging a stream from task 0 rebuilds its graph; merging its
   frontier after a round yields the dispatched sources of the pending
   edges, ascending and pinned, then the pending tasks and the edges
   into them. *)
let test_graph_snapshot_roundtrip () =
  let g = Example.fig1 () in
  let comps = graph_comps g in
  let edges_into lo hi =
    List.filter (fun (_, d, _) -> d >= lo && d < hi) (Array.to_list (graph_edges g))
  in
  let feed sg lo hi =
    ignore (Result.get_ok (SG.add_tasks sg ~comps:(Array.sub comps lo (hi - lo))));
    List.iter
      (fun (s, d, c) -> ignore (Result.get_ok (SG.add_edge sg ~src:s ~dst:d ~comm:c)))
      (edges_into lo hi)
  in
  (* The first pending task's merged id, the pinned (local, merged)
     pairs, and the merged graph. *)
  let merge sg ~frontier_only =
    let b = Taskgraph.Builder.create () in
    let frozen = ref [] in
    let first =
      SG.merge_into sg b ~frontier_only ~frozen:(fun ~local ~merged ->
          frozen := (local, merged) :: !frozen)
    in
    (first, List.rev !frozen, Serial.to_string (Taskgraph.Builder.build b))
  in
  let check = Alcotest.(check (triple int (list (pair int int)) string)) in
  let text comp edges = Serial.to_string (Taskgraph.of_arrays ~comp ~edges:(Array.of_list edges)) in
  let fresh = SG.create () in
  feed fresh 0 8;
  check "graph round-trips through Serial" (0, [], Serial.to_string g)
    (merge fresh ~frontier_only:false);
  let sg = SG.create () in
  feed sg 0 4;
  SG.dispatch sg;
  feed sg 4 8;
  check "whole history: every task, the dispatched ones pinned"
    (4, List.init 4 (fun t -> (t, t)), text comps (edges_into 0 4 @ edges_into 4 8))
    (merge sg ~frontier_only:false);
  let sources =
    List.sort_uniq compare
      (List.filter_map (fun (s, _, _) -> if s < 4 then Some s else None) (edges_into 4 8))
  in
  let nb = List.length sources in
  let id t = if t >= 4 then nb + t - 4 else List.length (List.filter (fun s -> s < t) sources) in
  check "frontier: dispatched sources, then the pending tasks"
    ( nb,
      List.mapi (fun i t -> (t, i)) sources,
      text
        (Array.append (Array.of_list (List.map (Array.get comps) sources)) (Array.sub comps 4 4))
        (List.map (fun (s, d, c) -> (id s, id d, c)) (edges_into 4 8)) )
    (merge sg ~frontier_only:true)

(* --- One sealed round == one-shot, every resumable scheduler --- *)

let prop_sealed_round_is_one_shot (p, procs) =
  let g = build_dag p in
  List.iter
    (fun (entry : RS.Registry.t) ->
      let name = entry.name in
      let m = Machine.clique ~num_procs:procs in
      let fresh = entry.run g m in
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
    RS.Registry.resumable_set;
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

(* --- Streamed placements, pinned for every resumable scheduler --- *)

(* A golden scenario: [streams] graphs share one group and are fed in
   Chunk.plan batches, [batches] for the first stream and fewer for the
   others. Per batch, every stream with one left adds its tasks, then
   every such stream its edges, then every such stream polls; all seal
   at the end. With [batch_tasks] 1 each add_edges runs a round of
   its own stream (the others are mid-batch and sit it out); unbounded,
   the first poll merges every stream. An infinite tick period keeps
   the mid-batch exclusion independent of the wall clock. *)
type golden_run = {
  streamed : Taskgraph.t array;  (** each stream's graph, in stream ids *)
  placed : SL.placement array array;  (** per stream, indexed by task *)
  finals : SL.progress array;
}

let golden_graph ~unit ~seed ~stream =
  let layers = 5 + (2 * stream) and max_width = 8 + (2 * stream) in
  if unit then
    Flb_workloads.Random_dag.layered ~rng:(Flb_prelude.Rng.create ~seed) ~layers
      ~min_width:1 ~max_width ~edge_probability:0.35
  else build_dag { layers; max_width; edge_probability = 0.35; ccr = 1.5; seed }

let golden_stream ~algo ~procs ~batch_tasks ~batches graphs =
  let loop =
    SL.create
      {
        SL.batch_tasks;
        tick_period_s = Float.infinity;
        idle_timeout_s = Float.infinity;
        max_streams = 8;
      }
  in
  (* Later streams finish sooner, so later rounds merge fewer streams. *)
  let plans =
    Array.mapi
      (fun s g ->
        Array.of_list (Chunk.plan ~chunks:(max 1 (batches - (s * batches / 3))) g))
      graphs
  in
  let ids = Array.map (fun _ -> ok (SL.open_stream loop ~algo ~procs)) graphs in
  let placed =
    Array.map (fun g -> Array.make (Taskgraph.num_tasks g) None) graphs
  in
  let note s (pr : SL.progress) =
    Array.iter
      (fun (pl : SL.placement) ->
        if placed.(s).(pl.task) <> None then
          Alcotest.failf "%s: stream %d task %d placed twice" algo s pl.task;
        placed.(s).(pl.task) <- Some pl)
      pr.placements
  in
  let each_with_batch j f =
    Array.iteri (fun s plan -> if j < Array.length plan then f s plan.(j)) plans
  in
  for j = 0 to batches - 1 do
    each_with_batch j (fun s (b : Chunk.batch) ->
        note s (snd (ok (SL.add_tasks loop ~stream:ids.(s) ~comps:b.comps))));
    each_with_batch j (fun s (b : Chunk.batch) ->
        note s (ok (SL.add_edges loop ~stream:ids.(s) ~edges:b.edges)));
    each_with_batch j (fun s _ -> note s (ok (SL.poll loop ~stream:ids.(s))))
  done;
  let finals =
    Array.mapi
      (fun s id ->
        let final = ok (SL.seal loop ~stream:id) in
        note s final;
        final)
      ids
  in
  let streamed =
    Array.map
      (fun plan ->
        let plan = Array.to_list plan in
        Taskgraph.of_arrays
          ~comp:(Array.concat (List.map (fun b -> b.Chunk.comps) plan))
          ~edges:(Array.concat (List.map (fun b -> b.Chunk.edges) plan)))
      plans
  in
  let placed =
    Array.mapi
      (fun s row ->
        Array.mapi
          (fun task -> function
            | Some pl -> pl
            | None -> Alcotest.failf "%s: stream %d task %d never placed" algo s task)
          row)
      placed
  in
  { streamed; placed; finals }

(* The streams share one machine: no two positive-length tasks overlap
   on a processor, and no task starts before a predecessor's finish
   plus, across processors, the edge's comm. *)
let check_golden_valid ~what run =
  let eps x = 1e-9 *. Float.max 1.0 (Float.abs x) in
  Array.iteri
    (fun s g ->
      let at = run.placed.(s) in
      Taskgraph.iter_edges
        (fun u v c ->
          let ready =
            at.(u).SL.finish +. if at.(u).SL.proc = at.(v).SL.proc then 0.0 else c
          in
          if at.(v).SL.start < ready -. eps ready then
            Alcotest.failf "%s: stream %d task %d starts at %g before %d's data at %g"
              what s v at.(v).SL.start u ready)
        g)
    run.streamed;
  let all = Array.concat (Array.to_list run.placed) in
  let by_proc = Hashtbl.create 16 in
  Array.iter (fun (pl : SL.placement) -> Hashtbl.add by_proc pl.proc pl) all;
  Hashtbl.iter
    (fun p _ ->
      let on_p =
        List.sort
          (fun (a : SL.placement) (b : SL.placement) ->
            compare (a.start, a.finish) (b.start, b.finish))
          (Hashtbl.find_all by_proc p)
      in
      ignore
        (List.fold_left
           (fun frontier (pl : SL.placement) ->
             if pl.finish > pl.start && pl.start < frontier -. eps frontier then
               Alcotest.failf "%s: a task at [%g, %g] overlaps earlier work on proc %d"
                 what pl.start pl.finish p;
             Float.max frontier pl.finish)
           Float.neg_infinity on_p))
    by_proc

let golden_digest run =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun s row ->
      Array.iter
        (fun (pl : SL.placement) ->
          Printf.bprintf buf "%d %d %d %Lx %Lx\n" s pl.SL.task pl.proc (bits pl.start)
            (bits pl.finish))
        row;
      Printf.bprintf buf "round %d makespan %Lx\n" run.finals.(s).SL.round
        (bits run.finals.(s).SL.makespan))
    run.placed;
  Buffer.contents buf

let golden_batches = [ 1; 4; 7; 16 ]

let golden_procs = [| 1; 2; 3; 4; 6; 8; 16 |]

(* One digest per (scheduler, weights, batch count), over six scenarios:
   1-3 streams by batch_tasks 1 and unbounded. *)
let golden_cell ~algo ~unit ~batches =
  let buf = Buffer.create 65536 in
  List.iter
    (fun streams ->
      List.iter
        (fun batch_tasks ->
          let seed = (1000 * batches) + (100 * streams) + if unit then 1 else 0 in
          let procs = golden_procs.(seed mod Array.length golden_procs) in
          let graphs =
            Array.init streams (fun stream -> golden_graph ~unit ~seed:(seed + stream) ~stream)
          in
          let run = golden_stream ~algo ~procs ~batch_tasks ~batches graphs in
          check_golden_valid
            ~what:
              (Printf.sprintf "%s %s, %d batches, %d streams, batch_tasks %d, P = %d"
                 algo (if unit then "unit" else "random") batches streams batch_tasks
                 procs)
            run;
          Buffer.add_string buf (golden_digest run))
        [ 1; max_int ])
    [ 1; 2; 3 ];
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

(* Recorded before streaming rounds merged only the frontier: per
   scheduler and weights, the digests for 1, 4, 7 and 16 batches. ISH's
   rows were recorded again once its gap search started at each
   processor's ready floor. *)
let streamed_goldens =
  [
    ("FLB", "random",
      [ "6e44e4eba56d0f9b"; "20f960afe61c0264"; "0b002589543e3055"; "3333d5f6d8e3b4a8" ]);
    ("FLB", "unit",
      [ "22c85963cbefc1ac"; "8fb882fa8ba0505b"; "944dfd5bf290219f"; "80afd9ec4317c029" ]);
    ("ETF", "random",
      [ "ac673b355bfe1aec"; "3d50086eb7c740d2"; "a0e2ed1b59b18799"; "e8f30f7d3fe41e71" ]);
    ("ETF", "unit",
      [ "ec4b7ab9bc553719"; "1bcb2fe511f2a9fa"; "99b63c4ec2e7910c"; "b94671a5c7c8523a" ]);
    ("MCP", "random",
      [ "8cd149822dc13114"; "1ecc2b4c49ea7132"; "1605cc239cc442fe"; "05d335a42485954c" ]);
    ("MCP", "unit",
      [ "e91098c083bb1e74"; "aba73451abf4dbf4"; "c94f9d45c0e507b6"; "6beb337c2a91de44" ]);
    ("FCP", "random",
      [ "9f480cc29fec8cff"; "8108fa4cbb36d2e9"; "8f0bd81d41f3d292"; "d7c996444751bcc1" ]);
    ("FCP", "unit",
      [ "362900c4f27f3564"; "f56c244e33be2400"; "29a22a8e2faef930"; "f8676730ecc2aabb" ]);
    ("HLFET", "random",
      [ "5667347a25940dd4"; "ecd8a681543af6b3"; "bbf014d78cb5cb1a"; "e831a5b2f9d6c414" ]);
    ("HLFET", "unit",
      [ "4dfc8c4e382547d4"; "a7af16c855573c94"; "7f538c1575c3d69f"; "8ac9bd9c00c8483e" ]);
    ("DLS", "random",
      [ "7dbb5954ea11a34f"; "767eb2b56dd56d4c"; "2448c6fd1b3ea5cf"; "0ef53efbb5fc1446" ]);
    ("DLS", "unit",
      [ "c7603de2304ef63c"; "9406e292060488e5"; "0e5e19c29680fa99"; "b94671a5c7c8523a" ]);
    ("ISH", "random",
      [ "fc9e60eec4e5f0a0"; "7cf63b66a5abdb2f"; "6e8a644f3ec6aced"; "4a2c4a3552a49cbb" ]);
    ("ISH", "unit",
      [ "ec4b7ab9bc553719"; "1bcb2fe511f2a9fa"; "99b63c4ec2e7910c"; "b94671a5c7c8523a" ]);
  ]

let test_streamed_goldens () =
  let computed =
    List.concat_map
      (fun (entry : RS.Registry.t) ->
        let algo = entry.name in
        List.map
          (fun unit ->
            ( algo,
              (if unit then "unit" else "random"),
              List.map (fun batches -> golden_cell ~algo ~unit ~batches) golden_batches ))
          [ false; true ])
      RS.Registry.resumable_set
  in
  let show (algo, w, ds) =
    Printf.sprintf "(%S, %S, [ %s ]);" algo w (String.concat "; " (List.map (Printf.sprintf "%S") ds))
  in
  let wrong = List.filter (fun c -> not (List.mem c streamed_goldens)) computed in
  if wrong <> [] || List.length computed <> List.length streamed_goldens then
    Alcotest.failf "streamed placements moved; now:\n%s"
      (String.concat "\n" (List.map show wrong))

(* --- A round costs its batch: FLB's rounds merge only the frontier --- *)

(* The (frontier, merged) args of every round span: the pending tasks a
   round placed and the tasks of the graph it merged. *)
let round_spans tracer =
  let module Json = Flb_prelude.Json in
  let int_arg v key =
    match Json.member key v with Some (Json.Num x) -> int_of_float x | _ -> -1
  in
  String.split_on_char '\n' (Flb_obs.Trace.to_jsonl tracer)
  |> List.filter_map (fun line ->
         match Json.of_string line with
         | Ok v when Json.member "name" v = Some (Json.Str "round") ->
           Some (int_arg v "frontier", int_arg v "merged")
         | _ -> None)

(* Round k of a 16-batch FLB or ISH stream merges batch k's tasks and
   the dispatched tasks its edges leave from, nothing older; MCP, which
   reads the whole history, merges every task streamed so far. *)
let test_round_merges_frontier () =
  let g =
    build_dag { layers = 12; max_width = 14; edge_probability = 0.3; ccr = 1.0; seed = 31 }
  in
  let plan = Chunk.plan ~chunks:16 g in
  List.iter
    (fun algo ->
      let tracer = Flb_obs.Trace.create ~clock:(fun () -> 0.0) () in
      let loop = SL.create ~tracer SL.default_config in
      let id = ok (SL.open_stream loop ~algo ~procs:8) in
      let streamed = ref 0 in
      let expected =
        List.map
          (fun (b : Chunk.batch) ->
            ignore (ok (SL.add_tasks loop ~stream:id ~comps:b.comps));
            ignore (ok (SL.add_edges loop ~stream:id ~edges:b.edges));
            ignore (ok (SL.poll loop ~stream:id));
            let size = Array.length b.comps in
            let sources =
              List.sort_uniq compare
                (List.filter_map
                   (fun (s, _, _) -> if s < !streamed then Some s else None)
                   (Array.to_list b.edges))
            in
            streamed := !streamed + size;
            (size, if algo = "MCP" then !streamed else size + List.length sources))
          plan
      in
      ignore (ok (SL.seal loop ~stream:id));
      Alcotest.(check int) "sixteen rounds" 16 (List.length expected);
      Alcotest.(check (list (pair int int)))
        (algo ^ ": (frontier, merged) per round")
        expected (round_spans tracer))
    [ "FLB"; "ISH"; "MCP" ]

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
  @ [
      Alcotest.test_case
        "streamed placements match recorded goldens, every scheduler, all valid"
        `Quick test_streamed_goldens;
      Alcotest.test_case "FLB rounds merge only each batch's frontier" `Quick
        test_round_merges_frontier;
    ]
