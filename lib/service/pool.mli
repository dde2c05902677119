(** Bounded work queue drained by a pool of OCaml 5 domains.

    Jobs are closures; scheduling requests are CPU-bound, so the pool
    runs them on real domains rather than systhreads. The queue is
    capacity-bounded and {!submit} never blocks: when the queue is full
    (or the pool is shutting down) it refuses the job, which is what
    lets the server shed load with an explicit [Overloaded] response
    instead of queueing unboundedly.

    A job that raises is contained: the exception is swallowed and the
    worker keeps draining (jobs are expected to report their own errors
    through their result channel). *)

type t

val create : domains:int -> queue_capacity:int -> unit -> t
(** Spawns [domains] worker domains immediately.
    @raise Invalid_argument if [domains < 1] or [queue_capacity < 1]. *)

val submit : t -> (unit -> unit) -> bool
(** [true] if the job was queued; [false] if the queue is at capacity
    or the pool is shutting down. Never blocks. *)

val pending : t -> int
(** Jobs queued and not yet picked up by a worker. *)

val domains : t -> int

val queue_capacity : t -> int

val shutdown : t -> unit
(** Graceful drain: refuses new jobs, lets the workers finish
    everything already queued, then joins them. Idempotent. *)
