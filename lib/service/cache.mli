(** Thread-safe LRU cache of schedule results.

    Keys combine a digest of the request's graph text with the algorithm
    name and processor count, so a repeated request is answered without
    parsing the graph or touching the worker pool at all. Both lookups
    and insertions renew recency; when the cache is full the
    least-recently-used entry is evicted. Every operation is guarded by
    one mutex, so a cache may be shared by all connection threads and
    worker domains of a server.

    Hit/miss/eviction counts are reported both through accessors and as
    [cache_hits_total] / [cache_misses_total] / [cache_evictions_total]
    counters in the {!Flb_obs.Metrics} registry passed at creation. The
    daemon looks a Schedule request up before it parses the graph, so a
    graph that turns out not to parse counts as one cache miss before it
    is rejected with [Invalid_graph]. *)

type 'a t

val create : ?metrics:Flb_obs.Metrics.t -> capacity:int -> unit -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val text_digest : string -> string
(** Hex MD5 of a request's graph text, byte for byte: no parsing, no
    normalization. {!key} and the router's shard key both take their
    digest from this one function, so "same shard" and "same cache
    entry" agree for any text. Two texts of one graph that differ in a
    comment, whitespace or line endings are distinct entries (and
    possibly distinct shards). *)

val digest : Flb_taskgraph.Taskgraph.t -> string
(** Stable, process-independent digest of a task graph: [text_digest]
    of its canonical {!Flb_taskgraph.Serial} serialization. Two fresh
    constructions of the same graph digest byte-identically. *)

val key : dead:int list -> graph:string -> algo:string -> procs:int -> string
(** Cache key of a request: [text_digest graph], the case-folded
    algorithm name, the processor count and the mask. [dead] ([[]] for
    a healthy machine) is the set of masked processors the schedule was
    computed around — part of the key, so a degraded-machine reschedule
    can never hit a stale full-machine entry. The list is canonicalized
    (sorted, deduplicated). When the graph text is canonical
    ([Serial.to_string g]), this equals
    [key_of_digest ~digest:(digest g)]. *)

val key_of_digest :
  dead:int list -> digest:string -> algo:string -> procs:int -> string
(** [key] for a caller that already holds the graph digest. *)

val find : 'a t -> string -> 'a option
(** [Some v] renews the entry's recency and counts a hit; [None]
    counts a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite; evicts the LRU entry when over capacity. *)

val length : 'a t -> int

val capacity : 'a t -> int

val hits : 'a t -> int

val misses : 'a t -> int

val evictions : 'a t -> int

val hit_rate : 'a t -> float
(** [hits / (hits + misses)], or 0 before any lookup. Streaming
    scheduling rounds never look the cache up — a partial graph's key is
    never seen twice, so a lookup would only record a structural miss —
    so they do not participate; [stream_rounds_total] counts them. *)
