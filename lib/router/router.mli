(** Front-end TCP router: shards Schedule requests across a fleet of
    [flb serve] replicas.

    The router speaks the {!Flb_service.Wire} framing on both sides,
    and serves its clients through a {!Flb_service.Listener}: the
    daemon's accept loop, framing policy and lifecycle. A
    Schedule request's shard key — {!Flb_service.Cache.text_digest} of
    its graph text × algorithm × P, the backend's own cache key — picks
    a replica set on a consistent-hash {!Ring}; the router never parses
    the graph on the way. Cold shards go primary-first so exactly one
    cache warms per shard; hot shards go to the least-loaded replica;
    saturated shards split across more replicas ({!Balancer}). A
    transport failure (connect refused, deadline, backend killed
    mid-request) re-enqueues the request on the next candidate — the
    client sees a normal response or a structured [Overloaded], never a
    hang. Only when every candidate has failed does the router parse the
    graph, so that a malformed one is still answered [Invalid_graph]
    rather than [Overloaded] ([router_graph_parses_total] counts these
    parses).

    Everything else is answered locally: [Ping] → [Pong], [Get_stats]
    (either format) from the router's own registry (with a per-backend
    table), [Get_load] with aggregate fleet load, [Shutdown] stops the
    router (backends keep running).

    Routers replicate: given [peers], a {!Gossip} thread exchanges
    per-backend status epochs and the split-shard set with the other
    replicas every [gossip_period_s], so a fleet behind DNS round-robin
    agrees on the Down set and split decisions within a few periods.
    Hot shards can {e hedge}: once a request outlives the configured
    delay, a second replica races it and the first answer wins. [Drain]
    flips a backend to [Draining] — no new shards, in-flight work
    finishes, the news gossips to every peer — and cache warming
    replays the hottest shards to joining or newly split replicas so
    they never serve cold. *)

type policy =
  | Hash  (** Consistent hashing by graph digest (the point of this
              module). *)
  | Round_robin  (** Ignore the ring; rotate through backends. Kept as
                     the baseline the benchmark compares against. *)

(** When to send a hot-shard request to a second replica. *)
type hedge =
  | Hedge_off
  | Hedge_fixed_ms of float  (** Hedge after a fixed delay. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}). *)
  backends : (string * int) list;  (** (host, port) of each replica. *)
  peers : (string * int) list;
      (** Fellow router replicas to gossip with; [[]] disables gossip. *)
  replication : int;  (** Replicas per shard. *)
  split_factor : int;  (** Replica-set multiplier for saturated shards. *)
  vnodes : int;  (** Ring points per backend. *)
  policy : policy;
  connect_timeout_s : float;
  call_timeout_s : float;  (** Per-call I/O deadline on backend sockets;
                               exceeding it triggers failover. *)
  health_period_s : float;  (** Probe cadence; [0.] disables the health
                                thread (tests drive probes manually). *)
  gossip_period_s : float;  (** Peer-exchange cadence; [0.] disables the
                                gossip thread (tests force passes). *)
  fail_threshold : int;  (** Consecutive failures before [Up -> Down]
                             (anti-flap hysteresis, default 2). *)
  hedge : hedge;
  warm_keys : int;  (** Hottest shards replayed to a joining or newly
                        split replica; [0] disables cache warming. *)
  tracer : Flb_obs.Trace.t;  (** Receives hedge spans; default null. *)
  max_frame : int;
}

val default_config : config
(** Port 7450, no backends (so {!start} must be given some), no peers,
    replication 2, split factor 2, 64 vnodes, [Hash] policy, 1s connect
    / 10s call timeouts, 2s health period, 1s gossip period, fail
    threshold 2, hedging off, 4 warm keys. *)

type t

val shard_key : graph:string -> algo:string -> procs:int -> string
(** The ring key of a Schedule request: {!Flb_service.Cache.text_digest}
    of its graph text, the case-folded algorithm, and the processor
    count — the same triple, digested by the same function, that
    {!Flb_service.Cache.key} builds, so "same shard" and "same cache
    entry" coincide for any text, canonical or not. Exposed so tests
    (and operators) can predict placement. *)

val start : ?metrics:Flb_obs.Metrics.t -> config -> t
(** Bind, listen, and serve in background threads until {!stop}.
    Backends are assumed [Up] until a call or probe says otherwise.
    @raise Invalid_argument if [config.backends] is empty or
    replication/split_factor/vnodes are out of range.
    @raise Unix.Unix_error if the port cannot be bound. *)

val port : t -> int
(** The actually-bound port. *)

val metrics : t -> Flb_obs.Metrics.t

val backends : t -> Backend.t list
(** Live backend handles, in configuration order. *)

val balancer : t -> Balancer.t

val gossip : t -> Gossip.t
(** The replica's gossip state (status epochs, split set, counters). *)

val probe_backends : t -> int
(** Probe every backend once (what the health thread does each period)
    and return how many answered. Exposed so tests with
    [health_period_s = 0.] can force a health pass deterministically. *)

val health_pass : t -> unit
(** One full health-thread iteration: probe backends, tick the
    balancer, then fold the fresh local view into gossip state. *)

val gossip_now : t -> unit
(** Exchange digests with every configured peer once (what the gossip
    thread does each period). Exposed so tests with
    [gossip_period_s = 0.] can force convergence deterministically. *)

val request_stop : t -> unit

val wait : t -> unit

val stop : t -> unit
(** [request_stop] then [wait]. *)
