open! Flb_taskgraph

(** Work-stealing engine: the decentralized runtime baseline.

    No schedule is consumed — only the DAG. Entry tasks are dealt
    round-robin across the per-domain deques; each worker pops its own
    deque LIFO, pushes successors it enables onto its own deque, and when
    empty steals FIFO from a uniformly random other victim, backing off
    exponentially (counted [cpu_relax]) while steals keep failing. This
    is the "make every balancing decision at run time" counterpoint the
    FLB paper argues against for predictable workloads: the bench suite
    and [Runtime_real_exp] measure its real makespan against the static
    engine's.

    A killed domain needs no special recovery path — whatever remains in
    its deque is ordinary steal fodder for the survivors; such steals are
    additionally counted as [recovered].

    Locality accounting: a task's hint is the deque it was placed in (the
    domain that enabled it, or its round-robin seed slot), so
    [hint_hits] counts own-deque pops and [hint_misses] counts steals —
    the engine's natural locality rate, comparable with {!Affinity}'s
    schedule-hint rate. *)

val seed : domains:int -> Taskgraph.t -> Deque.t array
(** The per-domain deques at the start of a run: entry tasks dealt
    round-robin by id. [Virtual_clock.run_steal] seeds its replay with
    it too. *)

val run : ?config:Engine.config -> Taskgraph.t -> Engine.outcome
(** [predicted_units] in the outcome is [nan]: dynamic balancing
    predicts nothing. @raise Invalid_argument on a bad config (see
    {!Engine.State.create}). *)
