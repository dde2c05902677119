(** Framed wire protocol of the scheduling service.

    Every message travels as one {e frame}: a 4-byte big-endian payload
    length followed by the payload itself. The payload starts with a
    one-byte protocol version ({!version}), then an 8-byte big-endian
    trace id (the request-scoped {!Flb_obs.Trace_context} id, echoed
    back in the response header), then a one-byte message tag and the
    tag's fields. Strings are 4-byte-length-prefixed, floats travel as
    IEEE-754 bit patterns, so [decode ∘ encode] is the identity on every
    value (including non-finite floats).

    The protocol has one version. A payload whose version byte is not
    {!version} decodes to [Error "...: unsupported protocol version N"]
    whatever follows it; the daemon and the router answer that with
    [Error { code = Bad_request }] and keep serving the connection.

    Besides one-shot [Schedule] requests the protocol carries the
    streaming conversation — [Open_stream] → [Stream_opened], then
    batches of [Add_tasks]/[Add_edges] answered with incremental
    [Placed] notifications, closed by [Seal] (or drained on demand with
    [Poll_stream]) — and the router-tier messages: [Gossip] →
    [Gossip_ack] (replicated routers exchanging per-backend status
    epochs and the split-shard set) and [Drain] → [Drain_ack] (graceful
    backend removal).

    Decoding never raises on untrusted input: malformed frames (bad
    version, unknown tag, truncated fields, trailing garbage) come back
    as [Error], and {!read_frame} bounds the declared payload length by
    [max_frame] before allocating anything, so a hostile header cannot
    make the server allocate gigabytes or hang. *)

type stats_format =
  | Stats_prometheus
      (** Prometheus text exposition of the server's registry, with the
          snapshot gauges refreshed first. This is the one metrics
          message. Tag 2 stays unassigned in both directions and
          decodes as an unknown tag: version-5 peers built before it
          was retired may still send it for metrics. *)
  | Stats_json  (** One JSON object with cache/pool/connection detail. *)

(** A backend's health as one router believes it, carried in gossip
    digests. Mirrors [Flb_router.Backend.status] without making the
    wire layer depend on the router. *)
type peer_status = Peer_up | Peer_draining | Peer_down

(** One backend's (status, epoch) pair. The epoch is a per-backend
    logical clock bumped on every locally observed status change;
    merges are last-writer-wins by epoch, so epochs never regress. *)
type gossip_entry = { backend : string; status : peer_status; epoch : int }

(** The whole state a router replica shares with its peers: every
    backend's status epoch plus the currently split shard set under its
    own last-writer-wins epoch. Small by construction — O(backends +
    split shards), not O(requests). *)
type gossip_digest = {
  entries : gossip_entry list;
  splits : string list;  (** Shard keys currently fanned out wide. *)
  splits_epoch : int;
}

type request =
  | Schedule of { graph : string; algo : string; procs : int }
      (** [graph] in the {!Flb_taskgraph.Serial} text format; [algo] as
          understood by {!Flb_reschedule.Registry.find}. *)
  | Get_stats of stats_format
      (** Live introspection snapshot: metrics registry, cache hit
          rate, pool depth, per-connection state. *)
  | Get_load
      (** Lightweight binary load probe: the handful of numbers a
          router's balancer needs — queue depth, cache hit rate,
          request count — without rendering a full [Get_stats]
          snapshot. Answered with {!response.Load}. *)
  | Ping
  | Shutdown  (** Ask the daemon to drain and exit. *)
  | Open_stream of { algo : string; procs : int }
      (** Open a streaming session. The scheduling-round threshold is
          the daemon's ([flb serve --stream-batch-tasks]). *)
  | Add_tasks of { stream : int; comps : float array }
      (** Append weighted tasks; ids are assigned consecutively from the
          stream's current task count. *)
  | Add_edges of { stream : int; edges : (int * int * float) array }
      (** Append [(src, dst, comm)] dependences. Edges into tasks the
          server has already dispatched are rejected with
          {!error_code.Edge_rejected}. *)
  | Seal of { stream : int }
      (** Declare the graph complete; the answer is the final [Placed]
          and the stream closes. *)
  | Poll_stream of { stream : int }
      (** Drain pending placements without appending. *)
  | Gossip of { from : string; digest : gossip_digest }
      (** Symmetric anti-entropy exchange between router replicas:
          [from] is the sender's advertised address, the digest its
          current view. Answered with {!response.Gossip_ack} carrying
          the receiver's post-merge view. *)
  | Drain of { backend : string }
      (** Graceful removal. Sent to a router, [backend] names the
          member to flip to [Draining] (and gossip onward); sent to a
          daemon with [backend = ""], the daemon itself finishes
          in-flight work and streams, then exits. *)

type error_code =
  | Bad_request  (** Malformed frame, payload, or field values. *)
  | Invalid_graph  (** Graph text failed to parse (including cycles). *)
  | Unknown_algorithm
  | Deadline_exceeded  (** Spent longer than the deadline queued. *)
  | Internal
  | Unknown_stream  (** No such (or already closed/evicted) stream. *)
  | Edge_rejected
      (** Structured append rejection: unknown endpoint, self edge,
          duplicate, bad weight, cycle, or an edge into a task whose
          placement was already announced. *)

(** Server-side latency breakdown of one [Schedule] request, in
    seconds. Zero fields where a stage did not run (a cache hit has no
    queue wait or compute). *)
type breakdown = {
  queue_wait_s : float;  (** Enqueue to pickup by a worker domain. *)
  cache_s : float;  (** Cache key + lookup. *)
  sched_s : float;  (** The scheduling algorithm proper. *)
  exec_s : float;  (** The whole compute job: graph parse,
                       scheduling, NSL reference, schedule text and
                       cache fill. *)
}

val no_breakdown : breakdown
(** All zeros. *)

(** One daemon's point-in-time load, as answered to {!request.Get_load}.
    Fixed-size binary — cheap enough for a router to poll
    every health-check period. *)
type load = {
  uptime_s : float;
  pending : int;  (** Jobs waiting in the worker-pool queue. *)
  cache_entries : int;
  cache_hit_rate : float;  (** Hits / lookups since start. *)
  scheduled_total : int;  (** Schedules served since start. *)
  connections : int;  (** Currently open connections. *)
}

type response =
  | Scheduled of {
      schedule : string;  (** {!Flb_platform.Schedule_io} text format. *)
      makespan : float;
      speedup : float;
      nsl : float;  (** Normalized against MCP on the same instance. *)
      cache_hit : bool;
      breakdown : breakdown;
    }
  | Stats_text of string  (** [Get_stats] answer, pre-rendered in the
                              requested format. *)
  | Load of load  (** [Get_load] answer. *)
  | Pong
  | Shutting_down
  | Overloaded
      (** Admission control: the work queue is full; retry later. *)
  | Error of { code : error_code; message : string }
  | Stream_opened of { stream : int }  (** [Open_stream] answer. *)
  | Placed of {
      stream : int;
      round : int;  (** Scheduling rounds this stream has been part of. *)
      final : bool;  (** Sealed and fully placed; the stream is closed. *)
      makespan : float;  (** Max finish over the stream's placed tasks. *)
      placements : (int * int * float) array;
          (** Newly dispatched [(task, proc, start)] placements, drained
              from the stream's outbox. Placements are immutable once
              announced. *)
    }
  | Gossip_ack of { digest : gossip_digest }
      (** The receiver's view after merging the incoming digest; the
          sender merges it back, making one exchange symmetric. *)
  | Drain_ack of { backend : string }
      (** Drain accepted; echoes the drained member ("" = self). *)

val version : int
(** The protocol version (5), the first byte of every payload. *)

val default_max_frame : int
(** 16 MiB: generous for V ≈ 10^5 task graphs, small enough that a
    hostile length header cannot balloon memory. *)

val error_code_to_string : error_code -> string

(** {1 Payload codecs} *)

val encode_request : ?trace_id:int64 -> request -> string
(** [trace_id] defaults to 0 (unset). *)

val decode_request : string -> (int64 * request, string) result
(** The header's trace id and the request. *)

val encode_response : ?trace_id:int64 -> response -> string

val decode_response : string -> (int64 * response, string) result
(** The header's trace id and the response. *)

(** {1 Framing} *)

type read_error =
  | Closed  (** EOF at a frame boundary: orderly peer shutdown. *)
  | Truncated  (** EOF in the middle of a frame. *)
  | Oversized of int  (** Declared length exceeds [max_frame]. *)

val read_error_to_string : read_error -> string

val write_frame : out_channel -> string -> unit
(** Length header plus payload; flushes the channel. *)

val read_frame : ?max_frame:int -> in_channel -> (string, read_error) result
(** Blocking read of one complete frame payload. *)
