open! Flb_platform

(** Rolling-frontier scheduling rounds over open streams.

    Each client owns a {e stream}: a {!Stream_graph} it grows in batches
    over the wire. On a {e tick} — an edge batch pushing the pending
    count past [batch_tasks], an explicit poll, a seal, or the periodic
    timer — the loop runs one {e scheduling round} for the affected
    group:

    - every open stream with the same (algorithm, processor count) and
      pending work is merged into one super-DAG (concurrent clients
      share a machine, so scheduling them together is what makes the
      placement globally load-balanced rather than per-client greedy);
    - for an algorithm that reads only the frontier
      ({!Flb_reschedule.Registry.resumable}'s [frontier_only]: FLB,
      ETF, FCP, HLFET, DLS, ISH) a stream contributes its frontier —
      its pending tasks, the edges into them, and the dispatched tasks
      those edges leave from — so a round costs about the batch it
      places, not the stream's history; MCP gets each stream's whole
      history ({!Stream_graph.merge_into}). Either way the merged tasks keep
      their relative order, so every placement is the one the
      whole-history merge would make;
    - the dispatched tasks merged are pinned at their announced
      placements ({!Flb_reschedule.Snapshot} via
      [Schedule.assign_frozen]), and the group's per-processor ready
      floors — the [advance_prt] image of every earlier round, surviving
      even streams that have since drained — bound where new work may
      start;
    - any resumable scheduler of {!Flb_reschedule.Registry} completes
      the merged schedule ({!Flb_reschedule.Reschedule.run}), and the
      new placements fan back out to per-stream outboxes.

    Once dispatched, a placement is immutable: the frozen-prefix
    invariant is what lets clients act on placements before the graph is
    complete. A stream fed its whole graph and sealed before the first
    tick goes through exactly one round with no frozen history and no
    floors, which reproduces the one-shot scheduler bit for bit. A live
    tracer gets one ["round"] span per round on the ["stream"] track,
    whose args count the [streams] merged, the [frontier] (pending
    tasks placed) and the [merged] graph's tasks.

    All entry points are thread-safe; rounds run on the calling thread
    under one loop-wide lock. *)

type config = {
  batch_tasks : int;
      (** Tick as soon as a group's pending count reaches this. *)
  tick_period_s : float;  (** Periodic tick for groups with pending work. *)
  idle_timeout_s : float;
      (** Unsealed streams idle this long are evicted. Their dispatched
          history stays in the group floors — placements were announced
          and the shared timeline cannot un-happen. *)
  max_streams : int;  (** Admission control for {!open_stream}. *)
}

val default_config : config
(** 32 tasks, 50 ms timer, 60 s idle eviction, 64 streams. *)

type placement = { task : int; proc : int; start : float; finish : float }

(** What one call drained from the stream's outbox. *)
type progress = {
  placements : placement array;  (** Newly announced, in dispatch order. *)
  round : int;  (** Scheduling rounds this stream has participated in. *)
  final : bool;  (** Sealed and fully placed; the stream is now closed. *)
  makespan : float;  (** Max finish over the stream's own placed tasks. *)
}

type error =
  | Unknown_stream of int
  | Too_many_streams of int  (** The [max_streams] admission limit. *)
  | Rejected of Stream_graph.error
  | Failed of string  (** Unknown/non-resumable algorithm, bad procs. *)

val error_to_string : error -> string

type t

val create : ?metrics:Flb_obs.Metrics.t -> ?tracer:Flb_obs.Trace.t -> config -> t
(** [metrics] receives the [stream_*] series; [stream_rounds_total]
    counts every scheduling round. *)

val open_stream : t -> algo:string -> procs:int -> (int, error) result
(** Validates [algo] against {!Flb_reschedule.Registry.find_resumable}
    and [procs >= 1]; returns the new stream id. *)

val add_tasks :
  t -> stream:int -> comps:float array -> (int * progress, error) result
(** Returns the first new task id. Never triggers a round: a freshly
    appended task with no edges yet looks like an entry task, and
    dispatching it before its dependences arrive would force
    [Edge_into_dispatched] rejections on well-behaved clients. It also
    marks the stream {e mid-batch}: until this stream's next
    [add_edges], [poll] or [seal] — or until it has sat idle for a full
    [tick_period_s] — rounds triggered by other group members (or the
    timer) skip it entirely, so a concurrent client cannot get your
    half-shipped batch dispatched under you. *)

val add_edges :
  t -> stream:int -> edges:(int * int * float) array -> (progress, error) result
(** Applies edges in order; the first bad edge aborts the batch with a
    structured error (earlier edges stay applied). May trigger a round
    when the group's pending count reaches [batch_tasks]. *)

val seal : t -> stream:int -> (progress, error) result
(** Cycle-checks, runs a final round draining the stream, and closes it.
    The returned progress has [final = true]. *)

val poll : t -> stream:int -> (progress, error) result
(** Drains the outbox; ticks a round first if the stream has pending
    tasks. *)

val maybe_tick : t -> now:float -> unit
(** Timer duties, called from the service accept loop: evict idle
    unsealed streams and run the periodic round for any group whose
    pending work has waited at least [tick_period_s]. Mid-batch streams
    are skipped per stream (see {!add_tasks}) until they have been idle
    a full tick period, so a timer round never fires between a live
    client's [add_tasks] and the matching [add_edges] — yet abandoned
    task-only batches still get placed eventually. *)

val rounds : t -> int
(** Scheduling rounds run since creation. *)

val active_streams : t -> int

val last_batch_streams : t -> int
(** Streams merged into the most recent round's super-DAG. *)
