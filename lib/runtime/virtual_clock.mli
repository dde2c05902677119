open! Flb_taskgraph
open! Flb_platform

(** Deterministic single-threaded execution under a virtual clock.

    The real engines are nondeterministic (wall-clock jitter, races in
    victim selection); this module executes the same disciplines with a
    simulated clock, so tests can pin their behavior exactly and recovery
    policies can be compared on exact makespans instead of noisy wall
    clocks. There is one replay per engine. Each takes an optional fault
    spec, [Fault.none] by default, whose times are in weight units,
    directly on the virtual clock.

    {!run_static} replays a schedule over its
    {!Schedule.execution_order}, and reacts to a death through the same
    {!Static.doom} and {!Static.replan} the static engine calls. Without
    faults each task starts
    at [max (finish of the previous task on its processor) (arrival of
    each predecessor's message)] — the fixpoint the event-driven
    [Flb_sim.Simulator.run] computes, using the identical float
    operations, so start and finish times agree {e bit-for-bit} (a
    zero-latency message arrives at the predecessor's exact finish float;
    a positive-latency one at [finish +. latency]). The qcheck suite
    asserts this equivalence on random DAGs for every registered
    scheduler and every recovery policy.

    {!run_steal} and {!run_affinity} share one event loop, written once:
    domains act in lowest-virtual-time-first order (ties to the lowest
    id); an acting domain whose kill is due dies, any other pops its own
    deque LIFO or, when that is empty, steals by its discipline's rule; a
    taken task starts at [max (domain's clock) (readiness time)] where
    readiness is the discipline's floor for the task (affinity's
    migration deadline) and charges cross-domain predecessor edges their
    communication weight when [charge_comm]; the tasks it enables go
    where the discipline routes them, and its hint rule counts it a hit
    or a miss. Each discipline supplies only its seeding, theft, floor,
    routing and hint rule, seeding and pricing with the very functions
    its real engine calls ({!Steal.seed}, {!Affinity.seed},
    {!Affinity.migration_price}).

    {!run_steal} is an idealized deterministic rendition of the stealing
    engine: entry tasks dealt round-robin by id, enabled tasks kept by
    the enabling domain, and a thief that steals the front of the first
    non-empty deque scanning round-robin from its right neighbor. With
    [domains = 1] there is nothing to steal and no communication, so the
    makespan is exactly the sequential sum of the weights (in execution
    order).

    Under faults a killed domain stops between tasks (fail-stop), a
    stalled one acts no earlier than the end of its stall window, and a
    slowed one stretches every task it runs. *)

type outcome = {
  start : float array;  (** [nan] for tasks that never executed *)
  finish : float array;
  exec_domain : int array;
      (** domain that ran each task, [-1] if none: the schedule's
          placement for {!run_static} (unless recovery moved it), the
          acting domain for {!run_steal} and {!run_affinity} *)
  makespan : float;  (** last finish among executed tasks; [0.] if none *)
  completed : int;
  total : int;
  killed : int;
  rescheds : int;
  recovered : int;  (** tasks taken from a dead domain's queue *)
  steals : int;  (** steals, dead victims included (stealing discipline) *)
  hint_hits : int;
      (** tasks executed on their hinted domain: every unrecovered task
          for {!run_static}, own-deque pops for {!run_steal}, scheduled
          placements honored for {!run_affinity} *)
  hint_misses : int;
  per_domain_tasks : int array;
}

val complete : outcome -> bool
(** Every task executed. Always true without faults. *)

val run_static :
  ?faults:Fault.spec -> ?recover:Engine.recovery -> Schedule.t -> outcome
(** The static discipline: a global event loop over claim and death
    events in increasing virtual time (deaths win ties — the worker polls
    its fault clock before taking work; fail-stop is between tasks).
    [recover] (default {!Engine.Steal_queues}) selects the reaction to a
    death: {!Engine.No_recovery} abandons the dead queue's dependence
    cone, {!Engine.Steal_queues} lets survivors take dead queue fronts no
    earlier than the death instant, {!Engine.Resched} freezes the
    executed prefix and re-runs the named scheduler over the frontier
    exactly as [Static.run] does.
    @raise Invalid_argument on a bad spec, unknown algorithm, or
    incomplete schedule, or if the replay deadlocks with no domain
    killed (a dependency-inconsistent per-processor order, impossible
    for schedules built through [Schedule.assign]). *)

val run_steal :
  ?charge_comm:bool -> ?faults:Fault.spec -> domains:int -> Taskgraph.t -> outcome
(** The stealing discipline. Dead domains stop acting but their deques
    stay stealable, so recovery needs no policy. [charge_comm] defaults
    to [true]. @raise Invalid_argument if [domains < 1] or on a bad
    spec. *)

val run_affinity : ?charge_comm:bool -> ?faults:Fault.spec -> Schedule.t -> outcome
(** Deterministic rendition of the locality-aware stealing engine
    {!Affinity.run}: deques seeded with each processor's scheduled entry
    tasks, newly enabled tasks routed to their hinted (scheduled)
    processor's deque, owners popping LIFO; an empty domain steals half
    of the {e deepest} other deque (the two-random-victim probe of the
    real engine collapsed to its deterministic load-aware limit), and
    when [charge_comm] (default [true]) a stolen task may not start
    before the steal instant plus its {!Affinity.migration_price}, so
    transfers overlap whatever the thief runs first. Entirely RNG- and
    wall-clock-free: repeated runs are bit-identical (qcheck-pinned).
    With one processor the makespan is exactly the sequential sum of the
    task weights. Under faults, dead domains stop acting but their deques
    stay stealable (a steal-half batch taken from a dead victim counts
    wholly as [recovered]), and hint routing falls back to the enabling
    domain while the hinted one is dead. @raise Invalid_argument on a
    bad spec. *)
