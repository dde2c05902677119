open! Flb_taskgraph
open! Flb_platform

(** Locality-aware work-stealing engine: FLB's schedule demoted from
    pins to hints, executed by a steal runtime.

    Each domain's deque is seeded with its {e scheduled} entry tasks (in
    schedule order) rather than round-robin, and a newly enabled task is
    routed to the deque of its hinted domain — the processor the
    schedule assigned it — falling back to the enabling domain when the
    hint is dead (QUARK's LOCALITY-flag semantics). Owners pop LIFO off
    the back; an idle thief probes two random victims, steals {e half}
    of the deeper deque FIFO off the front ({!Deque.steal_half}), runs
    the oldest stolen task and deposits the rest at its own front
    ({!Deque.push_front_batch}). Failed probes are bounded before
    exponential backoff, per the decentralized-list-scheduling analysis.

    Stealing is priced: each stolen task whose hint is not the thief
    charges [Machine.comm_time] for its heaviest in-edge against the
    thief's clock (gated by [config.charge_comm]), so theft only pays
    when the imbalance it fixes outweighs the data it moves.

    A killed domain needs no dedicated recovery path — its deque stays
    stealable and such thefts are counted as [recovered].

    [hint_hits]/[hint_misses] in the outcome count tasks executed on
    their scheduled processor vs. elsewhere. *)

val seed : Schedule.t -> Deque.t array
(** The per-domain deques at the start of a run: each processor's
    scheduled entry tasks, reversed so the owner's LIFO pops yield
    schedule order. *)

val migration_price : Schedule.t -> thief:int -> Taskgraph.task -> float
(** [migration_price sched] precomputes each task's heaviest in-edge;
    [~thief t] is then the [Machine.comm_time] that moving that data
    from [t]'s hinted processor to [thief] costs, in weight units (0 on
    the hint itself, and for entry tasks). A thief that steals [t] may
    not start it before that long after the steal.
    [Virtual_clock.run_affinity] seeds and prices with these same
    definitions. *)

val run : ?config:Engine.config -> Schedule.t -> Engine.outcome
(** Executes the schedule's DAG with [Schedule.proc] as affinity hints;
    [predicted_units] is [Schedule.makespan].
    @raise Invalid_argument if [config.domains] differs from the
    schedule's processor count, or on a bad config (see
    {!Engine.State.create}). *)
