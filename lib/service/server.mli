(** The scheduling daemon.

    A TCP server speaking the {!Wire} protocol through a {!Listener},
    which accepts connections and serves each on its own systhread
    (connection handling is I/O-bound) under the shared framing policy;
    the actual scheduling runs on a {!Pool} of OCaml 5 domains behind a
    capacity-bounded queue.

    The request path for [Schedule] is: validate the algorithm and P →
    key the graph text and probe the {!Cache} (a hit answers
    immediately, bypassing the pool, and its text is never parsed) →
    admission control (a full queue answers [Overloaded] without
    blocking, so a shed request is not parsed either) → enqueue → a
    worker domain checks the queueing deadline, parses the graph
    (counted in [service_graph_parses_total]; a malformed one answers
    [Error Invalid_graph]), computes the schedule plus
    makespan/speedup/NSL and caches it → the connection thread sends
    the response. Connection threads only read frames, key, probe and
    write answers; the text-heavy work of a miss runs on the pool.

    {2 Observability}

    Everything observable goes through one {!Flb_obs.Metrics} registry:
    request/overload/error counters, cache hit/miss/eviction counters,
    a queue-depth gauge, a request-latency histogram and per-stage
    histograms ([service_queue_wait_seconds], [service_cache_seconds],
    [service_sched_seconds], [service_exec_seconds]). Every answer
    from the registry first refreshes the snapshot gauges (uptime,
    cache hit rate and entries, pool depth, open connections):
    [Get_stats Stats_prometheus] is the Prometheus exposition
    ([Client.get_metrics] asks for it), and [Get_stats Stats_json] adds
    the per-connection table from {!Listener.connections}.

    Every [Schedule] request carries a {!Flb_obs.Trace_context} id,
    taken from the wire header or minted server-side when the header's
    id is unset (0), and echoed in the response header. When the
    server [config] carries an enabled tracer, each request emits
    queue-wait / cache / schedule / execute spans on its own
    ["req-<id>"] track and the scheduler's probe phases land on their
    phase tracks, so one request reads as one correlated row in
    Perfetto. Stage durations also travel back to the client in the
    [Scheduled] response's breakdown, tracer or not.

    {2 Streaming}

    The streaming messages ([Open_stream], [Add_tasks], [Add_edges],
    [Seal], [Poll_stream]) are routed to a
    {!Flb_stream.Scheduler_loop}: a per-stream session table with
    admission control and idle eviction, scheduling rounds that batch
    concurrent streams into one super-DAG, and per-round ["stream"]
    trace spans. The listener's accept thread doubles as the round
    timer: its [on_tick] runs at least every 200 ms, which bounds
    timer-tick latency. Streaming rounds never consult the LRU cache —
    partial graphs cannot repeat — so [service_cache_hit_rate] stays
    meaningful for one-shot traffic; [stream_rounds_total] counts
    them. *)

type config = {
  host : string;  (** Bind address; default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port (see {!port}). *)
  domains : int;  (** Worker domains in the pool. *)
  queue_capacity : int;  (** Bound on queued (not in-flight) jobs. *)
  cache_capacity : int;  (** LRU entries. *)
  max_frame : int;  (** Reject frames declaring more than this. *)
  deadline_s : float;
      (** A job that waited in the queue longer than this answers
          [Error Deadline_exceeded] instead of running. *)
  work_delay_s : float;
      (** Artificial per-job delay before computing; 0 in production.
          Tests and load-shaping experiments use it to saturate the
          queue deterministically. *)
  tracer : Flb_obs.Trace.t;
      (** Request-trace sink; {!Flb_obs.Trace.null} (the default)
          disables request tracing at zero cost. Tracer writes are
          serialized on an internal lock, so enabling tracing also
          serializes traced scheduling runs — a debugging mode, not a
          throughput mode. *)
  stream : Flb_stream.Scheduler_loop.config;
      (** Streaming-session tuning: scheduling-round task threshold,
          round timer period, idle-stream eviction, stream admission
          limit. *)
}

val default_config : config
(** 127.0.0.1:7440, 2 domains, queue 64, cache 256, 16 MiB frames,
    30 s deadline, no artificial delay, no tracer, default streaming
    config ({!Flb_stream.Scheduler_loop.default_config}). *)

type t

val start : ?metrics:Flb_obs.Metrics.t -> config -> t
(** Binds, listens and returns immediately; serving happens on
    background threads. @raise Unix.Unix_error if the bind fails. *)

val port : t -> int
(** The actual bound port (useful with [port = 0]). *)

val metrics : t -> Flb_obs.Metrics.t

val request_stop : t -> unit
(** Begin a graceful shutdown: stop accepting, drain the pool. Returns
    without waiting; never blocks (safe to call from a connection
    thread serving a [Shutdown] request). *)

val wait : t -> unit
(** Block until the server has fully stopped. *)

val stop : t -> unit
(** [request_stop] then [wait]. Idempotent. *)
