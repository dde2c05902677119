open! Flb_taskgraph
open! Flb_platform
module Metrics = Flb_obs.Metrics
module Trace = Flb_obs.Trace
module Registry = Flb_reschedule.Registry
module Reschedule = Flb_reschedule.Reschedule
module Snapshot = Flb_reschedule.Snapshot
module Vec = Flb_prelude.Vec

type config = {
  batch_tasks : int;
  tick_period_s : float;
  idle_timeout_s : float;
  max_streams : int;
}

let default_config =
  {
    batch_tasks = 32;
    tick_period_s = 0.05;
    idle_timeout_s = 60.0;
    max_streams = 64;
  }

type placement = { task : int; proc : int; start : float; finish : float }

type progress = {
  placements : placement array;
  round : int;
  final : bool;
  makespan : float;
}

type error =
  | Unknown_stream of int
  | Too_many_streams of int
  | Rejected of Stream_graph.error
  | Failed of string

let error_to_string = function
  | Unknown_stream id -> Printf.sprintf "unknown stream %d" id
  | Too_many_streams n -> Printf.sprintf "stream limit reached (%d open)" n
  | Rejected e -> Stream_graph.error_to_string e
  | Failed msg -> msg

(* Streams scheduling onto the same (algorithm, machine size) share a
   group: one super-DAG, one machine timeline. [floors] is the
   [advance_prt] image of every round the group has run — it outlives
   individual streams, because a drained stream's placements already
   occupied the shared processors and the timeline cannot un-happen.
   [frontier_only] is the algorithm's declared property
   ([Registry.resumable]): whether a round may merge each stream's
   frontier instead of its whole history. *)
type group = {
  g_algo : string;
  g_procs : int;
  frontier_only : bool;
  floors : float array;
  mutable refcount : int;
  mutable last_tick : float;
}

type stream = {
  id : int;
  algo : string; (* canonical registry spelling *)
  procs : int;
  sgraph : Stream_graph.t;
  outbox : placement Queue.t;
  (* The placement of each dispatched task, indexed by its id: later
     rounds pin the ones they merge at these. *)
  placed : placement Vec.t;
  mutable max_finish : float;
  mutable rounds_in : int;
  mutable last_activity : float;
  mutable poisoned : Stream_graph.error option;
  (* Between an [add_tasks] and this stream's next [add_edges], [poll]
     or [seal]: the new tasks' dependences may still be in flight, so
     rounds triggered by OTHER group members must not dispatch them
     (doing so would force Edge_into_dispatched on a well-behaved
     client). The stream's own next call lifts the exclusion. *)
  mutable mid_batch : bool;
}

type t = {
  config : config;
  lock : Mutex.t;
  streams : (int, stream) Hashtbl.t;
  groups : (string * int, group) Hashtbl.t;
  mutable next_id : int;
  mutable total_rounds : int;
  mutable batch_streams : int;
  tracer : Trace.t;
  open_total : Metrics.Counter.t;
  rounds_total : Metrics.Counter.t;
  placed_total : Metrics.Counter.t;
  evicted_total : Metrics.Counter.t;
  active_g : Metrics.Gauge.t;
  frontier_g : Metrics.Gauge.t;
  batch_g : Metrics.Gauge.t;
}

let now () = Unix.gettimeofday ()

let create ?metrics ?(tracer = Trace.null) config =
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  {
    config;
    lock = Mutex.create ();
    streams = Hashtbl.create 16;
    groups = Hashtbl.create 8;
    next_id = 1;
    total_rounds = 0;
    batch_streams = 0;
    tracer;
    open_total =
      Metrics.counter reg ~help:"streams opened" "stream_open_total";
    rounds_total =
      Metrics.counter reg ~help:"scheduling rounds run" "stream_rounds_total";
    placed_total =
      Metrics.counter reg ~help:"tasks placed by streaming rounds"
        "stream_placed_total";
    evicted_total =
      Metrics.counter reg ~help:"idle unsealed streams evicted"
        "stream_evicted_total";
    active_g =
      Metrics.gauge reg ~help:"currently open streams" "stream_active";
    frontier_g =
      Metrics.gauge reg ~help:"merged frontier size of the last round"
        "stream_frontier_size";
    batch_g =
      Metrics.gauge reg ~help:"streams merged into the last round's super-DAG"
        "stream_batch_streams";
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let group_key s = (String.lowercase_ascii s.algo, s.procs)

let group_of t s =
  let key = group_key s in
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
    let g =
      {
        g_algo = s.algo;
        g_procs = s.procs;
        frontier_only =
          (match Registry.find_resumable s.algo with
          | Some (_, r) -> r.Registry.frontier_only
          | None -> false);
        floors = Array.make s.procs 0.0;
        refcount = 0;
        last_tick = 0.0;
      }
    in
    Hashtbl.add t.groups key g;
    g

(* Removing a stream drops its group when it was the last member: a
   fresh first stream must start on an empty timeline, not inherit
   floors from traffic long drained. *)
let remove_stream t s =
  Hashtbl.remove t.streams s.id;
  let key = group_key s in
  (match Hashtbl.find_opt t.groups key with
  | Some g ->
    g.refcount <- g.refcount - 1;
    if g.refcount <= 0 then Hashtbl.remove t.groups key
  | None -> ());
  Metrics.Gauge.set t.active_g (float_of_int (Hashtbl.length t.streams))

let members t g =
  Hashtbl.fold
    (fun _ s acc ->
      let lo, pr = group_key s in
      if lo = String.lowercase_ascii g.g_algo && pr = g.g_procs then s :: acc
      else acc)
    t.streams []
  |> List.sort (fun a b -> compare a.id b.id)

(* A mid-batch stream is skipped by rounds it did not trigger — until
   its client has been quiet for a full tick period, after which the
   edges are clearly not in flight and the timer must still be able to
   place the (possibly abandoned) work. *)
let excluded t s ~at =
  s.mid_batch && at -. s.last_activity < t.config.tick_period_s

(* Pending tasks a round could actually dispatch right now: mid-batch
   streams are waiting for their edges and do not count. *)
let group_pending t g ~at =
  List.fold_left
    (fun acc s ->
      if s.poisoned = None && not (excluded t s ~at) then
        acc + Stream_graph.pending s.sgraph
      else acc)
    0 (members t g)

(* One scheduling round for [g]. Call with the lock held. *)
let run_round t g ~at =
  g.last_tick <- at;
  (* A cyclic stream would make the merged Builder.build raise and take
     every member's round down with it: detect, poison, exclude. The
     poisoned stream reports its structured error on the next touch. *)
  let actives =
    List.filter
      (fun s ->
        s.poisoned = None
        && (not (excluded t s ~at))
        && Stream_graph.pending s.sgraph > 0
        &&
        match Stream_graph.check_acyclic s.sgraph with
        | Ok () -> true
        | Error e ->
          s.poisoned <- Some e;
          false)
      (members t g)
  in
  if actives <> [] then begin
    let frontier =
      List.fold_left
        (fun acc s -> acc + Stream_graph.pending s.sgraph)
        0 actives
    in
    let n_streams = List.length actives in
    (* Merge the active streams, one after another, into one super-DAG
       and pin each dispatched task merged at its announced placement;
       returns the merged task count. The processors' ready times are
       the group floors, which cover every placement, merged or not. *)
    let schedule_round () =
      let b = Taskgraph.Builder.create ~expected_tasks:(2 * frontier) () in
      let frozen = ref [] in
      let firsts =
        List.map
          (fun s ->
            Stream_graph.merge_into s.sgraph b ~frontier_only:g.frontier_only
              ~frozen:(fun ~local ~merged ->
                let p = Vec.get s.placed local in
                frozen :=
                  {
                    Snapshot.task = merged;
                    proc = p.proc;
                    start = p.start;
                    finish = p.finish;
                  }
                  :: !frozen))
          actives
      in
      let merged = Taskgraph.Builder.build b in
      let machine = Machine.clique ~num_procs:g.g_procs in
      let ready =
        List.init g.g_procs (fun p -> (p, g.floors.(p)))
        |> List.filter (fun (_, f) -> f > 0.0)
      in
      let snapshot =
        Snapshot.make ~ready ~frozen:!frozen merged machine
      in
      let sched = Reschedule.run ~algo:g.g_algo snapshot in
      (* Fan placements back out and advance the shared floors. *)
      List.iter2
        (fun s first ->
          let pending = Stream_graph.pending s.sgraph in
          let first_pending = Stream_graph.num_tasks s.sgraph - pending in
          for k = 0 to pending - 1 do
            let m = first + k in
            let p =
              {
                task = first_pending + k;
                proc = Schedule.proc sched m;
                start = Schedule.start_time sched m;
                finish = Schedule.finish_time sched m;
              }
            in
            Vec.push s.placed p;
            if p.finish > s.max_finish then s.max_finish <- p.finish;
            Queue.add p s.outbox;
            Metrics.Counter.incr t.placed_total
          done;
          Stream_graph.dispatch s.sgraph;
          s.rounds_in <- s.rounds_in + 1)
        actives firsts;
      for p = 0 to g.g_procs - 1 do
        g.floors.(p) <- Schedule.prt sched p
      done;
      Taskgraph.num_tasks merged
    in
    if Trace.enabled t.tracer then begin
      let ts = Trace.now t.tracer in
      let merged = schedule_round () in
      Trace.add_span t.tracer ~track:"stream" ~name:"round" ~ts
        ~dur:(Trace.now t.tracer -. ts)
        ~args:
          [
            ("streams", float_of_int n_streams);
            ("frontier", float_of_int frontier);
            ("merged", float_of_int merged);
          ]
    end
    else ignore (schedule_round ());
    t.total_rounds <- t.total_rounds + 1;
    t.batch_streams <- n_streams;
    Metrics.Counter.incr t.rounds_total;
    Metrics.Gauge.set t.frontier_g (float_of_int frontier);
    Metrics.Gauge.set t.batch_g (float_of_int n_streams)
  end

(* Look a stream up and report a poisoned one: the structured cycle
   error surfaces on the first touch after the round that detected it,
   and the stream is closed. *)
let find_stream t id =
  match Hashtbl.find_opt t.streams id with
  | None -> Error (Unknown_stream id)
  | Some s -> (
    match s.poisoned with
    | Some e ->
      remove_stream t s;
      Error (Rejected e)
    | None -> Ok s)

(* A round may have just poisoned [s] (cycle found while merging):
   report the structured error on this very call, not the next. *)
let unless_poisoned t s k =
  match s.poisoned with
  | Some e ->
    remove_stream t s;
    Error (Rejected e)
  | None -> k ()

let drain ?(final = false) s =
  let placements = Array.of_seq (Queue.to_seq s.outbox) in
  Queue.clear s.outbox;
  { placements; round = s.rounds_in; final; makespan = s.max_finish }

let open_stream t ~algo ~procs =
  match Registry.find_resumable algo with
  | None ->
    Error
      (Failed
         (Printf.sprintf "unknown or non-resumable algorithm %S (try one of: %s)"
            algo
            (String.concat ", " (Registry.names Registry.resumable_set))))
  | Some (entry, _) ->
    if procs < 1 then
      Error (Failed (Printf.sprintf "procs must be >= 1 (got %d)" procs))
    else
      with_lock t (fun () ->
          if Hashtbl.length t.streams >= t.config.max_streams then
            Error (Too_many_streams (Hashtbl.length t.streams))
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            let s =
              {
                id;
                algo = entry.Registry.name;
                procs;
                sgraph = Stream_graph.create ();
                outbox = Queue.create ();
                placed = Vec.create ();
                max_finish = 0.0;
                rounds_in = 0;
                last_activity = now ();
                poisoned = None;
                mid_batch = false;
              }
            in
            Hashtbl.add t.streams id s;
            let g = group_of t s in
            g.refcount <- g.refcount + 1;
            Metrics.Counter.incr t.open_total;
            Metrics.Gauge.set t.active_g
              (float_of_int (Hashtbl.length t.streams));
            Ok id
          end)

let add_tasks t ~stream ~comps =
  with_lock t (fun () ->
      match find_stream t stream with
      | Error _ as e -> e
      | Ok s -> (
        s.last_activity <- now ();
        match Stream_graph.add_tasks s.sgraph ~comps with
        | Error e -> Error (Rejected e)
        | Ok first ->
          if Array.length comps > 0 then s.mid_batch <- true;
          Ok (first, drain s)))

let add_edges t ~stream ~edges =
  with_lock t (fun () ->
      match find_stream t stream with
      | Error _ as e -> e
      | Ok s ->
        s.last_activity <- now ();
        s.mid_batch <- false;
        let bad = ref None in
        (try
           Array.iter
             (fun (src, dst, comm) ->
               match Stream_graph.add_edge s.sgraph ~src ~dst ~comm with
               | Ok () -> ()
               | Error e ->
                 bad := Some e;
                 raise Exit)
             edges
         with Exit -> ());
        (match !bad with
        | Some e -> Error (Rejected e)
        | None ->
          let g = group_of t s in
          let at = now () in
          if group_pending t g ~at >= t.config.batch_tasks then
            run_round t g ~at;
          unless_poisoned t s (fun () -> Ok (drain s))))

let seal t ~stream =
  with_lock t (fun () ->
      match find_stream t stream with
      | Error _ as e -> e
      | Ok s -> (
        s.last_activity <- now ();
        s.mid_batch <- false;
        match Stream_graph.seal s.sgraph with
        | Error e ->
          remove_stream t s;
          Error (Rejected e)
        | Ok () ->
          let g = group_of t s in
          if Stream_graph.pending s.sgraph > 0 then run_round t g ~at:(now ());
          let progress = drain ~final:true s in
          remove_stream t s;
          Ok progress))

let poll t ~stream =
  with_lock t (fun () ->
      match find_stream t stream with
      | Error _ as e -> e
      | Ok s ->
        s.last_activity <- now ();
        s.mid_batch <- false;
        if Stream_graph.pending s.sgraph > 0 then
          run_round t (group_of t s) ~at:(now ());
        unless_poisoned t s (fun () -> Ok (drain s)))

let maybe_tick t ~now:at =
  with_lock t (fun () ->
      (* Idle eviction: an unsealed stream whose client went away must
         not pin its group (and the admission slots) forever. Evicted
         history stays in the group floors. *)
      let idle =
        Hashtbl.fold
          (fun _ s acc ->
            if
              (not (Stream_graph.sealed s.sgraph))
              && at -. s.last_activity > t.config.idle_timeout_s
            then s :: acc
            else acc)
          t.streams []
      in
      List.iter
        (fun s ->
          remove_stream t s;
          Metrics.Counter.incr t.evicted_total)
        idle;
      (* Periodic rounds: pending work must not wait for the next client
         request to get placed. Mid-batch streams — tasks appended,
         edges still in flight — are excluded per stream by [excluded],
         so a timer round never dispatches a half-shipped batch. *)
      let due =
        Hashtbl.fold
          (fun _ g acc ->
            if at -. g.last_tick >= t.config.tick_period_s then g :: acc
            else acc)
          t.groups []
      in
      List.iter
        (fun g -> if group_pending t g ~at > 0 then run_round t g ~at) due)

let rounds t = with_lock t (fun () -> t.total_rounds)

let active_streams t = with_lock t (fun () -> Hashtbl.length t.streams)

let last_batch_streams t = with_lock t (fun () -> t.batch_streams)
