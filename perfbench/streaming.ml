(* Protocol-v3 streaming load: each client repeatedly streams a graph
   in Chunk.plan batches (add tasks, add edges, poll), then seals. All
   clients share one (algorithm, P) group, so the daemon's rounds merge
   their streams. A stream is correct when every task is placed exactly
   once, on a processor in [0, P), and no placement starts before a
   predecessor's finish plus, across processors, the edge's comm. *)

open Flb_taskgraph
module Client = Flb_service.Client
module Wire = Flb_service.Wire
module Chunk = Flb_stream.Chunk

let now = Unix.gettimeofday

type input = {
  batches : Chunk.batch list;
  graph : Taskgraph.t;  (* the graph in stream-order ids *)
}

let prepare ~chunks g =
  let batches = Chunk.plan ~chunks g in
  let comp = Array.concat (List.map (fun b -> b.Chunk.comps) batches) in
  let edges = Array.concat (List.map (fun b -> b.Chunk.edges) batches) in
  { batches; graph = Taskgraph.of_arrays ~comp ~edges }

let kinds = [| "open"; "add_tasks"; "add_edges"; "poll"; "seal" |]

let kind_index name =
  let rec go i = if kinds.(i) = name then i else go (i + 1) in
  go 0

(* What one client thread measured, over its correct streams only. *)
type tally = {
  mutable attempted : int;  (* streams *)
  mutable failed : int;
  mutable rounds : int;  (* sum of final per-stream round counts *)
  finished_at : Sample.t;  (* per stream, when its final answer came *)
  duration : Sample.t;  (* per stream, open to final answer, seconds *)
  call_rtt : Sample.t;  (* every call, seconds *)
  by_kind : Sample.t array;  (* per call kind, seconds *)
  placed_at : Sample.t;  (* per task, when its placement came *)
  placement : Sample.t;  (* per task, from shipping to placement, seconds *)
  mutable requests : Wire.request list;  (* a few real frames *)
  mutable responses : Wire.response list;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    rounds = 0;
    finished_at = Sample.create ();
    duration = Sample.create ();
    call_rtt = Sample.create ();
    by_kind = Array.map (fun _ -> Sample.create ()) kinds;
    placed_at = Sample.create ();
    placement = Sample.create ();
    requests = [];
    responses = [];
  }

exception Bad of string

let check_precedence input ~procs proc start =
  let g = input.graph in
  let m = Flb_platform.Machine.clique ~num_procs:procs in
  for v = 0 to Taskgraph.num_tasks g - 1 do
    Taskgraph.iter_preds g v (fun u c ->
        let ready =
          start.(u) +. Taskgraph.comp g u
          +. Flb_platform.Machine.comm_time m ~src:proc.(u) ~dst:proc.(v) ~cost:c
        in
        if start.(v) < ready -. (1e-9 *. Float.max 1.0 ready) then
          raise
            (Bad
               (Printf.sprintf "task %d starts at %g before predecessor %d is ready at %g"
                  v start.(v) u ready)))
  done

(* One stream, start to seal. Returns the stream's samples only when it
   was correct; any transport error, refusal or wrong placement raises. *)
let one_stream ~spans ~track ~procs ~keep_frames c input t =
  let n = Taskgraph.num_tasks input.graph in
  let proc = Array.make n (-1) and start = Array.make n 0.0 in
  let added = Array.make n 0.0 in
  let calls = ref [] and placements = ref [] in
  let opened = now () in
  let timed name f =
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    calls := (name, t1 -. t0) :: !calls;
    Spans.add spans ~track name ~t0 ~dur:(t1 -. t0);
    match r with Ok v -> (v, t1) | Error msg -> raise (Bad (name ^ ": " ^ msg))
  in
  let note ((p : Client.placed), at) =
    if keep_frames then
      t.responses <-
        Wire.Placed
          {
            stream = 1;
            round = p.Client.round;
            final = p.Client.final;
            makespan = p.Client.makespan;
            placements = p.Client.placements;
          }
        :: t.responses;
    Array.iter
      (fun (task, pr, st) ->
        if task < 0 || task >= n then raise (Bad (Printf.sprintf "unknown task %d" task));
        if proc.(task) >= 0 then raise (Bad (Printf.sprintf "task %d placed twice" task));
        if pr < 0 || pr >= procs then
          raise (Bad (Printf.sprintf "task %d on processor %d" task pr));
        proc.(task) <- pr;
        start.(task) <- st;
        placements := (at, at -. added.(task)) :: !placements)
      p.Client.placements
  in
  let stream, _ =
    timed "open" (fun () -> Client.open_stream c ~algo:Inputs.algo_name ~procs)
  in
  let next = ref 0 in
  List.iter
    (fun { Chunk.comps; edges } ->
      let t0 = now () in
      Array.iteri (fun i _ -> added.(!next + i) <- t0) comps;
      next := !next + Array.length comps;
      if keep_frames then
        t.requests <-
          Wire.Add_tasks { stream; comps } :: Wire.Add_edges { stream; edges } :: t.requests;
      note (timed "add_tasks" (fun () -> Client.add_tasks c ~stream ~comps));
      if Array.length edges > 0 then
        note (timed "add_edges" (fun () -> Client.add_edges c ~stream ~edges));
      note (timed "poll" (fun () -> Client.poll_stream c ~stream)))
    input.batches;
  let ((final : Client.placed), closed) as sealed =
    timed "seal" (fun () -> Client.seal_stream c ~stream)
  in
  note sealed;
  if not final.Client.final then raise (Bad "seal answer not final");
  Array.iteri
    (fun task p -> if p < 0 then raise (Bad (Printf.sprintf "task %d never placed" task)))
    proc;
  check_precedence input ~procs proc start;
  (* Correct: commit the stream's samples. *)
  Sample.add t.finished_at closed;
  Sample.add t.duration (closed -. opened);
  List.iter
    (fun (name, d) ->
      Sample.add t.call_rtt d;
      Sample.add t.by_kind.(kind_index name) d)
    !calls;
  List.iter
    (fun (at, d) ->
      Sample.add t.placed_at at;
      Sample.add t.placement d)
    !placements;
  t.rounds <- t.rounds + final.Client.round

type window = { start : float; seconds : float; total : tally }

let merge tallies =
  let total = tally () in
  List.iter
    (fun t ->
      total.attempted <- total.attempted + t.attempted;
      total.failed <- total.failed + t.failed;
      total.rounds <- total.rounds + t.rounds;
      total.requests <- t.requests @ total.requests;
      total.responses <- t.responses @ total.responses)
    tallies;
  let merged f = Sample.merge (List.map f tallies) in
  {
    total with
    finished_at = merged (fun t -> t.finished_at);
    duration = merged (fun t -> t.duration);
    call_rtt = merged (fun t -> t.call_rtt);
    by_kind = Array.mapi (fun i _ -> merged (fun t -> t.by_kind.(i))) kinds;
    placed_at = merged (fun t -> t.placed_at);
    placement = merged (fun t -> t.placement);
  }

let run ?(spans = Spans.off) ~port ~clients ~seconds ~procs (inputs : input array) =
  let cursor = Atomic.make 0 in
  let start = now () in
  let deadline = start +. seconds in
  let tallies = Array.init clients (fun _ -> tally ()) in
  let worker id () =
    let t = tallies.(id) in
    let track = Printf.sprintf "client-%d" id in
    while now () < deadline do
      let input = inputs.(Atomic.fetch_and_add cursor 1 mod Array.length inputs) in
      t.attempted <- t.attempted + 1;
      match
        one_stream ~spans ~track ~procs ~keep_frames:(t.requests = [])
          (Conns.get ~port ~slot:id) input t
      with
      | () -> ()
      | exception e ->
        t.failed <- t.failed + 1;
        Printf.eprintf "stream failed: %s\n%!"
          (match e with Bad msg -> msg | e -> Printexc.to_string e);
        Conns.drop ~port ~slot:id;
        Unix.sleepf 0.001
    done
  in
  let threads = List.init clients (fun id -> Thread.create (worker id) ()) in
  List.iter Thread.join threads;
  { start; seconds; total = merge (Array.to_list tallies) }
