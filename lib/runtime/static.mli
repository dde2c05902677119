open! Flb_taskgraph
open! Flb_platform

(** Static engine: execute a compile-time schedule on real domains.

    Every task runs on the domain its {!Schedule.t} placement chose, and
    each domain consumes its queue strictly in schedule order (the same
    order [Flb_sim.Simulator.run] replays), dependency-gated by the
    shared atomic indegree counters — the runtime embodiment of FLB's
    claim that all balancing decisions can be made before execution.

    Under fault injection the placement is still honored by live
    domains; only a {e killed} domain's remaining queue is recovered, by
    survivors taking its front task whenever that task is ready (front
    only, so the dead queue is drained in schedule order, which keeps
    intra-queue dependences pointing at tasks already taken). A run
    completes under any fault spec that leaves at least one domain
    alive; if every domain is killed the outcome reports
    [completed < total]. *)

val run : ?config:Engine.config -> Schedule.t -> Engine.outcome
(** [config.domains] must equal the schedule's processor count; the
    predicted makespan in the outcome is [Schedule.makespan].
    @raise Invalid_argument on a domain-count mismatch, an incomplete
    schedule, or a bad config (see {!Engine.State.create}). *)

(** {1 Recovery policy pieces}

    Shared with [Virtual_clock.run_static], which replays the same
    reactions to a death. *)

val check_recover : Engine.recovery -> unit
(** @raise Invalid_argument when [Resched] names no registered
    rescheduling algorithm. *)

val doom : Taskgraph.t -> doomed:bool array -> Taskgraph.task list -> int
(** [doom g ~doomed roots] marks [roots] and their whole dependence cone
    in [doomed] — the work {!Engine.No_recovery} abandons when the
    roots' domain dies — and returns how many tasks it newly marked. *)

val replan : algo:string -> Flb_reschedule.Snapshot.t -> Taskgraph.task list array
(** {!Engine.Resched}'s reaction: reschedule the snapshot's frontier
    with [algo] and return each processor's new queue in
    {!Schedule.execution_order}, frozen tasks dropped. *)
