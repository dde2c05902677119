(* Streaming driver for loadgen's --stream mode; perfbench's stream
   workload is the measured, host-recorded form of the same run.

   Drives [clients] concurrent streaming sessions against a daemon:
   each session ships one graph in [batches] topologically ordered
   task/edge batches (Flb_stream.Chunk.plan), polls after every batch
   so placements arrive incrementally, and seals. Each placement's
   latency — the time from the Add_tasks call that shipped the task to
   the response that announced its placement — is kept as a raw sample;
   rounds are the per-stream final round counts summed, so
   rounds-per-second reflects actual scheduling rounds, not calls. *)

module Client = Flb_service.Client
module Chunk = Flb_stream.Chunk

type outcome = {
  wall : float;  (* seconds for the whole run *)
  streams_ok : int;  (* sessions sealed with every task placed *)
  rounds : int;  (* sum of final per-stream round counts *)
  placed : int;  (* placements received across all sessions *)
  expected : int;  (* clients * repeats * tasks *)
  dropped : int;  (* transport or protocol failures *)
  latency_ms : float array;  (* one sample per placement *)
}

let run ~clients ~repeats ~batches ~graph ~algo ~procs ~host ~port =
  let chunks = Chunk.plan ~chunks:batches graph in
  let tasks = Flb_taskgraph.Taskgraph.num_tasks graph in
  let rounds = Atomic.make 0 in
  let placed = Atomic.make 0 in
  let dropped = Atomic.make 0 in
  let streams_ok = Atomic.make 0 in
  (* Each client thread appends to its own slot; merged after the join. *)
  let samples = Array.make clients [] in
  let one_stream id client =
    match Client.open_stream client ~algo ~procs with
    | Error msg ->
      Printf.eprintf "stream open failed: %s\n%!" msg;
      Atomic.incr dropped;
      false
    | Ok stream ->
      let added = Array.make tasks 0.0 in
      let seen = ref 0 in
      let note (p : Client.placed) =
        let t = Unix.gettimeofday () in
        Array.iter
          (fun (task, _, _) ->
            samples.(id) <- ((t -. added.(task)) *. 1e3) :: samples.(id);
            incr seen)
          p.Client.placements
      in
      let next = ref 0 in
      let failed = ref false in
      let step what = function
        | Ok p -> note p
        | Error msg ->
          if not !failed then begin
            Printf.eprintf "%s failed: %s\n%!" what msg;
            Atomic.incr dropped;
            failed := true
          end
      in
      List.iter
        (fun { Chunk.comps; edges } ->
          if not !failed then begin
            let t0 = Unix.gettimeofday () in
            for i = 0 to Array.length comps - 1 do
              added.(!next + i) <- t0
            done;
            step "add-tasks" (Client.add_tasks client ~stream ~comps);
            next := !next + Array.length comps;
            if (not !failed) && Array.length edges > 0 then
              step "add-edges" (Client.add_edges client ~stream ~edges);
            if not !failed then
              step "poll" (Client.poll_stream client ~stream)
          end)
        chunks;
      if !failed then false
      else
        match Client.seal_stream client ~stream with
        | Error msg ->
          Printf.eprintf "seal failed: %s\n%!" msg;
          Atomic.incr dropped;
          false
        | Ok final ->
          note final;
          ignore (Atomic.fetch_and_add rounds final.Client.round);
          ignore (Atomic.fetch_and_add placed !seen);
          if final.Client.final && !seen = tasks then begin
            Atomic.incr streams_ok;
            true
          end
          else begin
            Printf.eprintf "stream incomplete: %d of %d tasks placed\n%!" !seen
              tasks;
            Atomic.incr dropped;
            false
          end
  in
  let client_thread id () =
    match Client.connect ~host ~port () with
    | exception e ->
      Printf.eprintf "stream client %d: connect failed: %s\n%!" id
        (Printexc.to_string e);
      Atomic.incr dropped
    | client ->
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          for _ = 1 to repeats do
            ignore (one_stream id client)
          done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun id -> Thread.create (client_thread id) ()) in
  List.iter Thread.join threads;
  {
    wall = Unix.gettimeofday () -. t0;
    streams_ok = Atomic.get streams_ok;
    rounds = Atomic.get rounds;
    placed = Atomic.get placed;
    expected = clients * repeats * tasks;
    dropped = Atomic.get dropped;
    latency_ms = Array.of_list (List.concat (Array.to_list samples));
  }

let print_summary ~label o =
  Printf.printf "%s: %d streams ok, %d/%d placements, %d rounds, %d dropped\n"
    label o.streams_ok o.placed o.expected o.rounds o.dropped;
  Printf.printf "  wall %.2f s, %.1f rounds/s\n" o.wall
    (float_of_int o.rounds /. Float.max o.wall 1e-9);
  if Array.length o.latency_ms > 0 then begin
    let q p = Flb_prelude.Stats.quantile o.latency_ms ~q:p in
    Printf.printf "  placement latency p50/p95/p99: %.3f / %.3f / %.3f ms\n"
      (q 0.5) (q 0.95) (q 0.99)
  end
