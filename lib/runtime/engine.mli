open! Flb_taskgraph
open! Flb_platform

(** Common interface of the execution engines.

    An engine runs a weighted task DAG on real OCaml 5 domains: each
    task burns calibrated spin-work proportional to its weight
    ({!Calibrate}), dependences are enforced with atomic indegree
    counters over the graph's CSR arrays, and cross-domain edges are
    optionally charged their communication cost as a real-time delay
    before the successor may start. Three engines share this interface:

    - {!Static} pins every task to the domain a {!Schedule.t} chose and
      consumes each domain's queue in schedule order — the FLB story:
      all placement decisions were made at compile time;
    - {!Steal} ignores the schedule entirely and balances dynamically
      with per-domain deques and randomized stealing — the decentralized
      list-scheduling baseline;
    - {!Affinity} is the production engine: work stealing {e guided} by
      the schedule — the FLB placement demoted from pins to affinity
      hints that route enabled tasks, while steal-half thieves override
      them whenever load demands it;
    - {!Virtual_clock} executes the same disciplines single-threaded
      under a deterministic virtual clock, reproducing
      [Flb_sim.Simulator.run] bit-for-bit, which is what makes the real
      engines testable.

    Fault injection ({!Fault.spec}) perturbs a run with per-domain
    slowdowns, stall windows and fail-stop kills; the [recover] policy
    chooses how the static engine reacts to a kill. *)

type recovery =
  | No_recovery
      (** survivors run only their own queues; work stranded on a dead
          domain (and everything depending on it) is abandoned *)
  | Steal_queues
      (** survivors claim the fronts of dead domains' queues,
          preserving schedule order — cheap, but keeps the now-stale
          placement *)
  | Resched of string
      (** on each death, snapshot the executed prefix and re-run the
          named list scheduler ({!Flb_reschedule.Reschedule}) over the
          unexecuted frontier on the surviving domains, then swap the
          per-domain queues *)

val recovery_to_string : recovery -> string

type config = {
  domains : int;  (** worker-domain count *)
  unit_ns : float;
      (** real nanoseconds one weight unit burns; 0 makes tasks
          instantaneous (engine-mechanics tests). Must be > 0 when
          [faults] is non-empty, since fault times are weight units. *)
  charge_comm : bool;
      (** charge cross-domain edges their communication cost as a
          real-time arrival delay (the machine model's message latency) *)
  faults : Fault.spec;
  recover : recovery;
      (** kill-recovery policy of the static engine (the stealing
          engine's deques recover naturally); default {!Steal_queues},
          the pre-rescheduling behaviour *)
  seed : int;  (** victim selection in the stealing engine *)
  metrics : Flb_obs.Metrics.t option;
      (** receives the [rt_*] series, see {!emit_metrics} *)
  flight_path : string option;
      (** where the run's event log goes: a
          {!Flb_obs.Flight_recorder} with one track per domain ([D0],
          [D1], ...) holding task spans and steal / recover / stall /
          killed / resched instants, timestamped in seconds since the
          run epoch. Each domain's ring is sized from the task count
          and the fault spec, so no event of the run is overwritten.
          The log is written on every [killed] and [stall] event (a
          fault is the moment the recent past becomes worth keeping —
          this includes engine panics, which {!State.mark_dead} the
          domain) and once more at the end of the run: JSONL led by a
          meta line (reason, engine, domains, unit_ns) for a [.jsonl]
          path, Chrome trace-event JSON otherwise. [None] records
          nothing. *)
}

val default_config : config
(** 4 domains, 1000 ns/unit, communication charged, no faults,
    steal-queues recovery, seed 1, no metrics, no event log. *)

type outcome = {
  engine : string;  (** ["static"], ["steal"] or ["affinity"] *)
  domains : int;
  total : int;  (** tasks in the graph *)
  completed : int;  (** tasks actually executed (= [total] unless every
                        domain was killed first) *)
  real_ns : float;
      (** wall-clock makespan: last task finish minus the start-gate
          epoch, so domain spawn/join overhead is excluded *)
  real_units : float;  (** [real_ns /. unit_ns]; [nan] when [unit_ns = 0] *)
  predicted_units : float;
      (** the schedule's analytic makespan (static engine); [nan] for
          the stealing engine, which has no prediction *)
  per_domain_tasks : int array;
  per_domain_busy_ns : float array;  (** time inside task spin-work *)
  per_domain_idle_ns : float array;  (** wall time minus busy time *)
  steals : int;
  failed_steals : int;
  recovered : int;  (** tasks taken from a dead domain's queue *)
  killed : int;  (** domains that died to a [Kill] fault *)
  rescheds : int;  (** frontier reschedules triggered by deaths *)
  hint_hits : int;
      (** tasks executed on their affinity-hinted domain — the scheduled
          processor under {!Affinity}, the deque a task was placed in
          under {!Steal}; always [completed] minus [recovered] for
          {!Static}, whose placement is the schedule itself *)
  hint_misses : int;  (** tasks executed away from their hint *)
}

val complete : outcome -> bool

val ratio : outcome -> float
(** [real_units /. predicted_units] — how much slower the real run was
    than the compile-time prediction. [nan] without a prediction. *)

val hint_hit_rate : outcome -> float
(** [hint_hits / (hint_hits + hint_misses)] — how much of the FLB
    placement survived dynamic execution. [nan] when the engine tracked
    no hints (e.g. a run that executed nothing). *)

val pp_outcome : Format.formatter -> outcome -> unit

val emit_metrics : Flb_obs.Metrics.t -> outcome -> unit
(** Record an outcome as [rt_*] series: counters [rt_tasks_total],
    [rt_steals_total], [rt_failed_steals_total], [rt_recovered_total],
    [rt_killed_domains_total], [rt_affinity_hint_hits_total],
    [rt_affinity_hint_misses_total]; gauges [rt_real_makespan_ns],
    [rt_real_makespan_units], [rt_predicted_makespan_units],
    [rt_real_over_predicted], [rt_affinity_hint_rate] and per-domain
    [rt_idle_ns_d<i>] / [rt_busy_ns_d<i>]. *)

val relax : int -> unit
(** Cooperative wait step for worker loops: [fruitless] is the number of
    consecutive iterations that found nothing to do. Spins
    ([Domain.cpu_relax]) while small, naps 100 µs once past a grace
    threshold — so oversubscribed or single-core hosts make progress at
    sleep granularity instead of OS timeslices, while dedicated cores
    never reach the sleep. *)

val max_backoff : int
(** The cap on a thief's backoff count, {!relax}'s argument after
    failed steals, in {!Steal} and {!Affinity}. *)

val victim_rng : config -> int -> Flb_prelude.Rng.t
(** Domain [d]'s victim-choice generator in {!Steal} and {!Affinity},
    seeded from [config.seed] and [d]. *)

(** {1 Shared run-state plumbing}

    Used by {!Static}, {!Steal} and {!Affinity}; not meant for external
    callers. Each engine builds a {!State.t}, then hands
    {!State.run_team} its per-worker setup; the team lifecycle (spawn,
    start gate, fault polling, busy/idle accounting, join, outcome) is
    written once, and only an engine's step function and per-task hot
    path are its own. *)

module State : sig
  type t = {
    cfg : config;
    graph : Taskgraph.t;
    total : int;
    predicted : float;
    engine : string;
    indegree : int Atomic.t array;  (** unfinished predecessors per task *)
    finish_ns : float array;
        (** absolute finish timestamp; published by the successor-side
            indegree decrement (plain write before atomic write) *)
    exec_domain : int array;  (** domain that ran the task; same publication *)
    completed : int Atomic.t;
    dead : bool Atomic.t array;
    deaths : int Atomic.t;  (** count of domains marked dead so far *)
    go : bool Atomic.t;  (** start gate; workers park until {!run_team} opens it *)
    mutable start_ns : float;  (** run epoch, stamped as the gate opens *)
    cal : Calibrate.t;
    flight : Flb_obs.Flight_recorder.t option;
        (** the run's event log, sized to the run; [None] without
            [cfg.flight_path] *)
    dump_lock : Mutex.t;  (** serializes writes of the log *)
    steals : int Atomic.t;
    failed_steals : int Atomic.t;
    recovered : int Atomic.t;
    rescheds : int Atomic.t;
    hint_hits : int Atomic.t;
    hint_misses : int Atomic.t;
    owner : int Atomic.t array;
        (** exclusive-execution claims: [-1] free, else the claiming
            domain. The static engine claims before running so a
            reschedule's queue swap can never double-execute a task. *)
    claim_units : float array;
        (** claim timestamp (weight units) per task, stamped at claim;
            the reschedule snapshot uses it as the frozen start time of
            in-flight work *)
    d_tasks : int array;  (** slot [d] written only by domain [d] *)
    d_busy_ns : float array;
    d_idle_ns : float array;
  }

  val create : config -> engine:string -> predicted:float -> Taskgraph.t -> t
  (** Validates the config ([domains >= 1], [unit_ns >= 0], fault spec
      sane for the team size, [unit_ns > 0] when faults are present) and
      builds the shared arrays. @raise Invalid_argument on a bad config. *)

  val now_units : t -> float
  (** Elapsed weight units since the run epoch (0 when [unit_ns = 0]). *)

  val is_dead : t -> int -> bool

  val mark_dead : t -> int -> unit
  (** Flags the domain dead and, the first time, records a [Killed]
      instant with {!record}. *)

  val ready : t -> int -> bool
  (** All predecessors executed (indegree 0). *)

  val try_claim : t -> domain:int -> int -> bool
  (** Atomically claim a task for execution by [domain] (CAS [-1 ->
      domain] on [owner]), stamping [claim_units] first. Returns false
      if another domain already owns it — the caller must drop the task
      without running it. *)

  val claimed : t -> int -> bool

  val run_task : t -> domain:int -> slowdown:float -> int -> float
  (** Execute one ready task on the calling domain: wait out the
      message-arrival time implied by cross-domain predecessors (when
      [charge_comm]), burn [weight *. unit_ns *. slowdown] of spin-work,
      publish finish time and executing domain, decrement successor
      indegrees, bump the completion counter, record a span. Returns the
      busy nanoseconds spent. *)

  val run_task_enqueue : t -> domain:int -> slowdown:float -> on_ready:(int -> unit) -> int -> float
  (** Same, additionally calling [on_ready s] for every successor whose
      indegree this completion dropped to zero (the stealing engine
      pushes them onto the finisher's deque). *)

  val count_hint : t -> hit:bool -> unit
  (** Bump the affinity-hint hit or miss counter for one executed task. *)

  val record : t -> domain:int -> Flb_obs.Flight_recorder.kind -> a:int -> b:float -> unit
  (** Record an instant of the calling domain in the event log, stamped
      now on the run clock, with the kind's [a] and [b] fields (see
      {!Flb_obs.Flight_recorder.kind}); a no-op without a log. A steal,
      single or batch, is one [Steal] naming the task the thief runs
      and its victim. [Killed] and [Stall] also write the log to
      [cfg.flight_path] at once (see {!config}); a failed write never
      raises. *)

  val run_team :
    ?finished:(unit -> bool) ->
    t ->
    (int -> busy:float ref -> slowdown:float -> unit) ->
    outcome
  (** Run the whole team to its outcome. For each domain [d] a worker
      calls [worker d ~busy] once, before the start gate, to build its
      step function; after the gate it polls the domain's fault clock
      ([Die] marks the domain dead and exits, [Stall_until] relax-waits
      out the window) and calls [step ~slowdown] while [finished ()] is
      false (default: all tasks completed). The fault decision precedes
      the completion check, so a kill that is due registers even when no
      work remains. [busy] is the worker's own sum of task
      nanoseconds, published once at exit with the idle remainder. A
      worker that raises is {!mark_dead}. The epoch is stamped only
      once the whole team is up ([Domain.spawn] costs milliseconds), so
      [real_ns] is last task finish minus epoch; the wall time since
      the epoch stands in when no task executed. The outcome also goes
      to [cfg.metrics] ({!emit_metrics}), and the event log is written
      a last time. *)
end
