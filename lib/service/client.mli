(** Blocking client for the scheduling daemon.

    One connection, one outstanding request at a time — exactly what
    the CLI, the tests and each thread of the load generator need. A
    client is NOT safe to share between threads; give each thread its
    own.

    Every request carries a {!Flb_obs.Trace_context} id in the wire
    header — minted per call unless the caller supplies one — and the
    id the server answered with is kept in {!last_trace_id}, so a
    caller can print "request 3f9a... failed" and grep the daemon's
    trace for the matching ["req-3f9a..."] track. *)

type t

val connect :
  ?host:string ->
  ?connect_timeout_s:float ->
  ?io_timeout_s:float ->
  port:int ->
  unit ->
  t
(** [host] defaults to ["127.0.0.1"]. [connect_timeout_s] bounds the
    TCP connect itself (non-blocking connect + select; absent or
    non-positive means the OS default, which can be minutes on a
    black-holed address). [io_timeout_s] arms per-syscall send/receive
    deadlines on the socket, so a peer that accepts a request but never
    answers turns into a [call] transport error instead of a hang —
    this is what lets a router fail over from a stalled backend.
    @raise Unix.Unix_error if the connection fails (including
    [ETIMEDOUT] from an expired [connect_timeout_s]). *)

val close : t -> unit
(** Idempotent. *)

val call : ?trace_id:int64 -> t -> Wire.request -> (Wire.response, string) result
(** One round trip. [Error] covers transport failures (connection
    closed, truncated or oversized response frame, undecodable
    payload); protocol-level failures arrive as [Ok (Wire.Error _)],
    [Ok Wire.Overloaded], etc. An absent or zero [trace_id] mints a
    fresh one. *)

val last_trace_id : t -> int64
(** The trace id of the most recent call: the one from the response
    header when the server set it, else the one this client sent.
    [0L] before the first call. *)

(** {1 Convenience wrappers} *)

val schedule :
  ?trace_id:int64 ->
  t ->
  graph:string ->
  algo:string ->
  procs:int ->
  (Wire.response, string) result
(** [call] with a [Wire.Schedule] request; the graph in
    {!Flb_taskgraph.Serial} text format. *)

val get_metrics : t -> (string, string) result
(** The server registry's Prometheus exposition: [get_stats] in
    {!Wire.Stats_prometheus} form. *)

val get_stats : t -> format:Wire.stats_format -> (string, string) result
(** Live introspection snapshot, pre-rendered by the daemon. *)

val get_load : t -> (Wire.load, string) result
(** Lightweight binary load probe — the router's balancer polls this
    instead of parsing a full stats snapshot. *)

val ping : t -> (unit, string) result

val shutdown : t -> (unit, string) result
(** Ask the daemon to drain and exit; [Ok ()] once it acknowledges. *)

val drain : ?backend:string -> t -> (unit, string) result
(** Graceful removal. Against a router, [backend] names the member to
    flip to [Draining]; against a daemon, the default [""] asks the
    daemon itself to finish in-flight work and exit. [Ok ()] once the
    drain is acknowledged (not yet complete). *)

val gossip :
  t -> from:string -> digest:Wire.gossip_digest -> (Wire.gossip_digest, string) result
(** One symmetric anti-entropy exchange with a router peer: send our
    digest, get the peer's post-merge digest back. *)

(** {1 Streaming}

    The streaming wrappers unwrap the server's [Placed] answers into
    {!placed}; any other answer — including structured [Error]
    responses — comes back as [Error message]. Task ids are
    client-computable: consecutive from the stream's running task
    count, in [Add_tasks] order. *)

type placed = {
  round : int;  (** Scheduling rounds the stream has been part of. *)
  final : bool;  (** The stream is sealed, fully placed, and closed. *)
  makespan : float;  (** Max finish time over the stream's placements. *)
  placements : (int * int * float) array;  (** [(task, proc, start)]. *)
}

val open_stream : t -> algo:string -> procs:int -> (int, string) result
(** Open a streaming session; returns the server-assigned stream id. *)

val add_tasks : t -> stream:int -> comps:float array -> (placed, string) result

val add_edges :
  t -> stream:int -> edges:(int * int * float) array -> (placed, string) result

val seal_stream : t -> stream:int -> (placed, string) result
(** The final drain: the answer has [final = true]. *)

val poll_stream : t -> stream:int -> (placed, string) result
