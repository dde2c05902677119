open! Flb_taskgraph
open! Flb_platform
module Json = Flb_prelude.Json
module Registry = Flb_reschedule.Registry
module Metrics = Flb_obs.Metrics
module Trace = Flb_obs.Trace
module Ctx = Flb_obs.Trace_context
module Stream_loop = Flb_stream.Scheduler_loop

type config = {
  host : string;
  port : int;
  domains : int;
  queue_capacity : int;
  cache_capacity : int;
  max_frame : int;
  deadline_s : float;
  work_delay_s : float;
  tracer : Trace.t;
  stream : Stream_loop.config;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7440;
    domains = 2;
    queue_capacity = 64;
    cache_capacity = 256;
    max_frame = Wire.default_max_frame;
    deadline_s = 30.0;
    work_delay_s = 0.0;
    tracer = Trace.null;
    stream = Stream_loop.default_config;
  }

(* A write-once cell: the connection thread blocks on [read] while a
   worker domain [fill]s the response. *)
module Ivar = struct
  type 'a t = { lock : Mutex.t; cond : Condition.t; mutable value : 'a option }

  let create () = { lock = Mutex.create (); cond = Condition.create (); value = None }

  let fill t v =
    Mutex.lock t.lock;
    if t.value = None then begin
      t.value <- Some v;
      Condition.broadcast t.cond
    end;
    Mutex.unlock t.lock

  let read t =
    Mutex.lock t.lock;
    while t.value = None do
      Condition.wait t.cond t.lock
    done;
    let v = Option.get t.value in
    Mutex.unlock t.lock;
    v
end

type cached = { schedule : string; makespan : float; speedup : float; nsl : float }

type t = {
  config : config;
  listener : Listener.t;
  started_at : float;
  registry : Metrics.t;
  cache : cached Cache.t;
  pool : Pool.t;
  streams : Stream_loop.t;
  (* Set by [Drain]: finish in-flight work and streams, refuse new
     connections, then stop. *)
  draining : bool Atomic.t;
  (* Schedule requests currently being handled (queued or computing); a
     drain completes only once this reaches zero. *)
  inflight : int Atomic.t;
  (* Consecutive quiescent accept-loop ticks while draining; only the
     accept thread touches it. Two ticks (~400 ms) of quiet are required
     before a drain stops the daemon, closing the window where a frame
     has been read but not yet counted in-flight. *)
  mutable drain_idle_ticks : int;
  (* The tracer's buffer has one logical writer; connection threads and
     worker domains all emit request spans, so every tracer touch goes
     through this lock. Contention only exists when tracing is on. *)
  trace_lock : Mutex.t;
  requests : Metrics.Counter.t;
  scheduled : Metrics.Counter.t;
  overloaded : Metrics.Counter.t;
  errors : Metrics.Counter.t;
  connections : Metrics.Counter.t;
  graph_parses : Metrics.Counter.t;
  queue_depth : Metrics.Gauge.t;
  latency : Metrics.Histogram.t;
  queue_wait_seconds : Metrics.Histogram.t;
  cache_seconds : Metrics.Histogram.t;
  sched_seconds : Metrics.Histogram.t;
  exec_seconds : Metrics.Histogram.t;
  uptime_g : Metrics.Gauge.t;
  cache_hit_rate_g : Metrics.Gauge.t;
  cache_entries_g : Metrics.Gauge.t;
  pool_pending_g : Metrics.Gauge.t;
  conns_active_g : Metrics.Gauge.t;
}

let metrics t = t.registry

let port t = Listener.port t.listener

(* --- request handling --- *)

let now () = Unix.gettimeofday ()

let span srv ctx name ~ts ~dur args =
  if Trace.enabled srv.config.tracer then begin
    Mutex.lock srv.trace_lock;
    Ctx.add_span ~args ctx name ~ts ~dur;
    Mutex.unlock srv.trace_lock
  end

let compute srv ~ctx ~key ~procs g (a : Registry.t) =
  if srv.config.work_delay_s > 0.0 then Unix.sleepf srv.config.work_delay_s;
  let machine = Machine.clique ~num_procs:procs in
  let tracer = srv.config.tracer in
  let ts0 = Trace.now tracer in
  let t0 = now () in
  let s =
    if Trace.enabled tracer then begin
      (* Traced runs are serialized: the probe emits phase spans
         (priority computation, processor selection, ...) into the
         shared tracer, time-aligned with this request's track. *)
      Mutex.lock srv.trace_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock srv.trace_lock)
        (fun () -> fst (Registry.run_with_report ~tracer a g machine))
    end
    else a.Registry.run g machine
  in
  let sched_s = now () -. t0 in
  Metrics.Histogram.observe srv.sched_seconds sched_s;
  span srv ctx "schedule" ~ts:ts0 ~dur:sched_s [ ("procs", float_of_int procs) ];
  let mcp_len = Flb_schedulers.Mcp.schedule_length g machine in
  let result =
    {
      schedule = Schedule_io.to_string s;
      makespan = Schedule.makespan s;
      speedup = Flb_platform.Metrics.speedup s;
      nsl = Flb_platform.Metrics.nsl s ~reference:mcp_len;
    }
  in
  Cache.add srv.cache key result;
  (result, sched_s)

let scheduled_response ~cache_hit ~breakdown { schedule; makespan; speedup; nsl } =
  Wire.Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown }

let handle_schedule srv ~ctx ~graph ~algo ~procs =
  let started = now () in
  let finish resp =
    (match resp with
    | Wire.Scheduled _ -> Metrics.Counter.incr srv.scheduled
    | Wire.Overloaded -> Metrics.Counter.incr srv.overloaded
    | Wire.Error _ -> Metrics.Counter.incr srv.errors
    | _ -> ());
    Metrics.Histogram.observe srv.latency (now () -. started);
    resp
  in
  if procs < 1 then
    finish
      (Wire.Error
         {
           code = Wire.Bad_request;
           message = Printf.sprintf "procs must be >= 1 (got %d)" procs;
         })
  else
    match Registry.find algo with
    | None ->
      finish
        (Wire.Error
           {
             code = Wire.Unknown_algorithm;
             message =
               Printf.sprintf "unknown algorithm %S (try one of: %s)" algo
                 (String.concat ", " (Registry.names Registry.extended_set));
           })
    | Some a -> (
      let ts_cache = Trace.now srv.config.tracer in
      let t_cache = now () in
      let key = Cache.key ~dead:[] ~graph ~algo ~procs in
      let hit = Cache.find srv.cache key in
      let cache_s = now () -. t_cache in
      Metrics.Histogram.observe srv.cache_seconds cache_s;
      span srv ctx "cache" ~ts:ts_cache ~dur:cache_s
        [ ("hit", if hit = None then 0.0 else 1.0) ];
      match hit with
      | Some cached ->
        let breakdown = { Wire.no_breakdown with cache_s } in
        finish (scheduled_response ~cache_hit:true ~breakdown cached)
      | None ->
        let ivar = Ivar.create () in
        let enqueued = now () in
        let ts_enqueued = Trace.now srv.config.tracer in
        let job () =
          let queue_wait_s = now () -. enqueued in
          Metrics.Histogram.observe srv.queue_wait_seconds queue_wait_s;
          span srv ctx "queue-wait" ~ts:ts_enqueued ~dur:queue_wait_s [];
          if queue_wait_s > srv.config.deadline_s then
            Ivar.fill ivar
              (Wire.Error
                 {
                   code = Wire.Deadline_exceeded;
                   message =
                     Printf.sprintf "spent more than %gs queued" srv.config.deadline_s;
                 })
          else begin
            let ts_exec = Trace.now srv.config.tracer in
            let t_exec = now () in
            (* Only a miss needs the graph itself (bytes that hit were
               parsed when their entry was filled), and it is parsed
               here, on a worker domain, so that connection threads
               only move bytes. *)
            Metrics.Counter.incr srv.graph_parses;
            match compute srv ~ctx ~key ~procs (Serial.of_string graph) a with
            | result, sched_s ->
              let exec_s = now () -. t_exec in
              Metrics.Histogram.observe srv.exec_seconds exec_s;
              span srv ctx "execute" ~ts:ts_exec ~dur:exec_s [];
              let breakdown = { Wire.queue_wait_s; cache_s; sched_s; exec_s } in
              Ivar.fill ivar (scheduled_response ~cache_hit:false ~breakdown result)
            | exception Serial.Parse_error { line; message } ->
              Ivar.fill ivar
                (Wire.Error
                   {
                     code = Wire.Invalid_graph;
                     message = Printf.sprintf "graph line %d: %s" line message;
                   })
            | exception e ->
              Ivar.fill ivar
                (Wire.Error { code = Wire.Internal; message = Printexc.to_string e })
          end
        in
        if not (Pool.submit srv.pool job) then finish Wire.Overloaded
        else begin
          Metrics.Gauge.set srv.queue_depth (float_of_int (Pool.pending srv.pool));
          let resp = Ivar.read ivar in
          Metrics.Gauge.set srv.queue_depth (float_of_int (Pool.pending srv.pool));
          finish resp
        end)

let request_stop t = Listener.request_stop t.listener

(* A drain is complete when no schedule is in flight, the pool queue is
   empty and every streaming session has closed or been evicted. *)
let drain_quiescent srv =
  Atomic.get srv.draining
  && Atomic.get srv.inflight = 0
  && Pool.pending srv.pool = 0
  && Stream_loop.active_streams srv.streams = 0

let maybe_finish_drain srv =
  if drain_quiescent srv then begin
    srv.drain_idle_ticks <- srv.drain_idle_ticks + 1;
    if srv.drain_idle_ticks >= 2 then request_stop srv
  end
  else srv.drain_idle_ticks <- 0

(* --- live introspection --- *)

let state_name srv =
  if Listener.stopped srv.listener then "stopped"
  else if Listener.stopping srv.listener then "stopping"
  else if Atomic.get srv.draining then "draining"
  else "running"

(* Point-in-time values live in gauges so the Prometheus exposition and
   the JSON snapshot agree; refresh them right before rendering. *)
let refresh_snapshot_gauges srv =
  Metrics.Gauge.set srv.uptime_g (now () -. srv.started_at);
  Metrics.Gauge.set srv.cache_hit_rate_g (Cache.hit_rate srv.cache);
  Metrics.Gauge.set srv.cache_entries_g (float_of_int (Cache.length srv.cache));
  Metrics.Gauge.set srv.pool_pending_g (float_of_int (Pool.pending srv.pool));
  Metrics.Gauge.set srv.conns_active_g
    (float_of_int (List.length (Listener.connections srv.listener)))

let stats_json srv =
  let t = now () in
  let connection (info : Listener.conn_info) =
    Json.Obj
      [
        ("id", Json.int info.conn_id);
        ("peer", Json.Str info.peer);
        ("age_s", Json.Num (t -. info.connected_at));
        ("requests", Json.int info.conn_requests);
        ( "idle_s",
          Json.Num
            (if info.last_s = 0.0 then t -. info.connected_at else t -. info.last_s) );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("state", Json.Str (state_name srv));
         ("uptime_s", Json.Num (t -. srv.started_at));
         ( "cache",
           Json.Obj
             [
               ("entries", Json.int (Cache.length srv.cache));
               ("capacity", Json.int (Cache.capacity srv.cache));
               ("hits", Json.int (Cache.hits srv.cache));
               ("misses", Json.int (Cache.misses srv.cache));
               ("evictions", Json.int (Cache.evictions srv.cache));
               ("hit_rate", Json.Num (Cache.hit_rate srv.cache));
             ] );
         ( "pool",
           Json.Obj
             [
               ("domains", Json.int (Pool.domains srv.pool));
               ("pending", Json.int (Pool.pending srv.pool));
               ("queue_capacity", Json.int (Pool.queue_capacity srv.pool));
             ] );
         ( "streams",
           Json.Obj
             [
               ("active", Json.int (Stream_loop.active_streams srv.streams));
               ("rounds", Json.int (Stream_loop.rounds srv.streams));
             ] );
         ( "connections",
           Json.Arr (List.map connection (Listener.connections srv.listener)) );
         ("metrics", Metrics.json srv.registry);
       ])

let stats_text srv fmt =
  refresh_snapshot_gauges srv;
  match fmt with
  | Wire.Stats_prometheus -> Metrics.to_prometheus srv.registry
  | Wire.Stats_json -> stats_json srv

(* --- streaming sessions --- *)

let stream_error_response = function
  | Stream_loop.Unknown_stream _ as e ->
    Wire.Error
      { code = Wire.Unknown_stream; message = Stream_loop.error_to_string e }
  | Stream_loop.Too_many_streams _ -> Wire.Overloaded
  | Stream_loop.Rejected _ as e ->
    Wire.Error
      { code = Wire.Edge_rejected; message = Stream_loop.error_to_string e }
  | Stream_loop.Failed _ as e ->
    Wire.Error
      { code = Wire.Bad_request; message = Stream_loop.error_to_string e }

let placed_response ~stream (p : Stream_loop.progress) =
  Wire.Placed
    {
      stream;
      round = p.Stream_loop.round;
      final = p.Stream_loop.final;
      makespan = p.Stream_loop.makespan;
      placements =
        Array.map
          (fun (pl : Stream_loop.placement) ->
            (pl.Stream_loop.task, pl.Stream_loop.proc, pl.Stream_loop.start))
          p.Stream_loop.placements;
    }

let handle_stream srv ~stream result =
  (match result with
  | Ok _ -> ()
  | Error (Stream_loop.Too_many_streams _) -> Metrics.Counter.incr srv.overloaded
  | Error _ -> Metrics.Counter.incr srv.errors);
  match result with
  | Ok p -> placed_response ~stream p
  | Error e -> stream_error_response e

(* Returns [false] when the connection should stop being served. *)
let handle_request srv ~respond ~trace_id = function
  | Wire.Schedule { graph; algo; procs } ->
    (* An unset id (0) gets a server-minted one, so the request still
       forms one correlated track in the trace and the peer can fish
       the id out of the response header. *)
    let ctx = Ctx.create ~id:trace_id srv.config.tracer in
    Atomic.incr srv.inflight;
    let resp =
      Fun.protect
        ~finally:(fun () -> Atomic.decr srv.inflight)
        (fun () -> handle_schedule srv ~ctx ~graph ~algo ~procs)
    in
    respond ~trace_id:(Ctx.id ctx) resp;
    true
  | Wire.Get_stats fmt ->
    respond ~trace_id (Wire.Stats_text (stats_text srv fmt));
    true
  | Wire.Get_load ->
    (* Fixed-size binary answer, no text rendering: cheap enough for a
       router to poll every health-check period. *)
    respond ~trace_id
      (Wire.Load
         {
           Wire.uptime_s = now () -. srv.started_at;
           pending = Pool.pending srv.pool;
           cache_entries = Cache.length srv.cache;
           cache_hit_rate = Cache.hit_rate srv.cache;
           scheduled_total = Metrics.Counter.value srv.scheduled;
           connections = List.length (Listener.connections srv.listener);
         });
    true
  | Wire.Open_stream { algo; procs } ->
    (* A draining daemon takes no new streams — existing ones finish,
       new ones go elsewhere. *)
    let resp =
      if Atomic.get srv.draining then begin
        Metrics.Counter.incr srv.overloaded;
        Wire.Overloaded
      end
      else
        match Stream_loop.open_stream srv.streams ~algo ~procs with
      | Ok id -> Wire.Stream_opened { stream = id }
      | Error (Stream_loop.Too_many_streams _) ->
        Metrics.Counter.incr srv.overloaded;
        Wire.Overloaded
      | Error e ->
        Metrics.Counter.incr srv.errors;
        stream_error_response e
    in
    respond ~trace_id resp;
    true
  | Wire.Add_tasks { stream; comps } ->
    respond ~trace_id
      (handle_stream srv ~stream
         (Result.map
            (fun (_first, p) -> p)
            (Stream_loop.add_tasks srv.streams ~stream ~comps)));
    true
  | Wire.Add_edges { stream; edges } ->
    respond ~trace_id
      (handle_stream srv ~stream
         (Stream_loop.add_edges srv.streams ~stream ~edges));
    true
  | Wire.Seal { stream } ->
    respond ~trace_id
      (handle_stream srv ~stream (Stream_loop.seal srv.streams ~stream));
    true
  | Wire.Poll_stream { stream } ->
    respond ~trace_id
      (handle_stream srv ~stream (Stream_loop.poll srv.streams ~stream));
    true
  | Wire.Ping ->
    respond ~trace_id Wire.Pong;
    true
  | Wire.Shutdown ->
    respond ~trace_id Wire.Shutting_down;
    request_stop srv;
    false
  | Wire.Drain { backend } ->
    (* Addressed to this daemon: finish in-flight schedules and open
       streams, refuse new connections, then exit. The accept loop
       notices quiescence and stops the daemon; the connection stays up
       so the drainer can poll until the process goes away. *)
    Atomic.set srv.draining true;
    respond ~trace_id (Wire.Drain_ack { backend });
    true
  | Wire.Gossip _ ->
    Metrics.Counter.incr srv.errors;
    respond ~trace_id
      (Wire.Error
         {
           code = Wire.Bad_request;
           message = "gossip is only spoken between routers";
         });
    true

let start ?metrics config =
  let registry = match metrics with Some r -> r | None -> Metrics.create () in
  let cache = Cache.create ~metrics:registry ~capacity:config.cache_capacity () in
  let streams = Stream_loop.create ~metrics:registry ~tracer:config.tracer config.stream in
  let listener = Listener.bind ~host:config.host ~port:config.port in
  let srv =
    {
      config;
      listener;
      started_at = now ();
      registry;
      cache;
      streams;
      pool =
        Pool.create ~domains:config.domains ~queue_capacity:config.queue_capacity ();
      draining = Atomic.make false;
      inflight = Atomic.make 0;
      drain_idle_ticks = 0;
      trace_lock = Mutex.create ();
      requests =
        Metrics.counter registry ~help:"requests received" "service_requests_total";
      scheduled =
        Metrics.counter registry ~help:"schedules served"
          "service_scheduled_total";
      overloaded =
        Metrics.counter registry ~help:"requests shed by admission control"
          "service_overloaded_total";
      errors =
        Metrics.counter registry ~help:"structured error responses"
          "service_errors_total";
      connections =
        Metrics.counter registry ~help:"connections accepted"
          "service_connections_total";
      graph_parses =
        Metrics.counter registry
          ~help:"Schedule graphs parsed (once per admitted cache miss, never on a hit)"
          "service_graph_parses_total";
      queue_depth =
        Metrics.gauge registry ~help:"jobs waiting in the pool queue"
          "service_queue_depth";
      latency =
        Metrics.histogram registry ~help:"schedule request latency (seconds)"
          "service_request_seconds";
      queue_wait_seconds =
        Metrics.histogram registry
          ~help:"time a schedule job spent queued before a worker picked it up"
          "service_queue_wait_seconds";
      cache_seconds =
        Metrics.histogram registry
          ~help:"cache key + lookup time per schedule request"
          "service_cache_seconds";
      sched_seconds =
        Metrics.histogram registry
          ~help:"scheduling algorithm time per cache miss"
          "service_sched_seconds";
      exec_seconds =
        Metrics.histogram registry
          ~help:"whole compute job time per cache miss"
          "service_exec_seconds";
      uptime_g =
        Metrics.gauge registry ~help:"seconds since the daemon started"
          "service_uptime_seconds";
      cache_hit_rate_g =
        Metrics.gauge registry ~help:"cache hits / lookups since start"
          "service_cache_hit_rate";
      cache_entries_g =
        Metrics.gauge registry ~help:"entries currently cached"
          "service_cache_entries";
      pool_pending_g =
        Metrics.gauge registry ~help:"jobs pending in the worker pool"
          "service_pool_pending";
      conns_active_g =
        Metrics.gauge registry ~help:"currently open connections"
          "service_connections_active";
    }
  in
  Listener.serve listener ~max_frame:config.max_frame ~requests:srv.requests
    ~errors:srv.errors ~connections:srv.connections
    ~admit:(fun () ->
      (* New connections are turned away mid-drain; a router sees the
         refusal as a failure and fails over. *)
      not (Atomic.get srv.draining))
    ~on_tick:(fun () ->
      (* The accept loop doubles as the streaming round timer: every
         wakeup (at most 200 ms apart) runs due periodic rounds and
         evicts idle streams, so pending streamed work is placed even
         when no client request arrives to trigger it. *)
      (try Stream_loop.maybe_tick srv.streams ~now:(now ()) with _ -> ());
      maybe_finish_drain srv)
    ~on_stop:(fun () -> Pool.shutdown srv.pool)
    (handle_request srv);
  srv

let wait t = Listener.wait t.listener

let stop t =
  request_stop t;
  wait t
