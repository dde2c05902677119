open! Flb_taskgraph

(** Partial and complete schedules, and the timing quantities of the
    paper (Section 2).

    A schedule maps tasks to processors with start and finish times. The
    quantities below are defined on a {e partial} schedule and a ready
    task [t] (one whose predecessors are all scheduled):

    - [PRT p]: processor ready time, the finish time of the last task
      scheduled on [p];
    - [LMT t]: last message arrival time,
      [max over preds (FT t' +. comm (t', t))] (0 for entry tasks);
    - [EP t]: enabling processor, the processor the last message arrives
      from (ties broken towards the lowest processor id);
    - [EMT t p]: effective message arrival time when tentatively placing
      [t] on [p] — each message pays {!Machine.comm_time} from its
      sender's processor to [p] (0 locally; the edge cost on the paper's
      clique; cost times hops on a mesh);
    - [EST t p = max (EMT t p) (PRT p)]: estimated start time;
    - [t] is {e EP type} iff [LMT t >= PRT (EP t)], else non-EP type.

    All schedulers in this repository mutate a value of this type through
    {!assign}; {!validate} checks the final result against the machine
    model independently of how it was produced. *)

type t

type task = Taskgraph.task

(** {1 Creation and assignment} *)

val create : Taskgraph.t -> Machine.t -> t
(** Empty schedule: every task unscheduled, every processor idle at 0. *)

val graph : t -> Taskgraph.t

val machine : t -> Machine.t

val num_procs : t -> int

val assign : t -> task -> proc:int -> start:float -> unit
(** Schedules a ready task. The finish time is [start +. comp].
    @raise Invalid_argument if the task is already scheduled, some
    predecessor is unscheduled, the processor is unknown or masked out,
    or [start] is negative. Start-time feasibility against messages and
    processor availability is {e not} checked here (insertion-based
    schedulers legitimately start tasks before [PRT]); {!validate}
    checks it. *)

(** {1 Fault-time rescheduling support}

    A reschedule seeds a fresh schedule with the executed prefix of a
    run as {e frozen} history — measured start/finish times, possibly on
    processors that have since died — masks the dead processors, floors
    the live processors' ready times at the fault time, and then lets
    any list scheduler complete the remainder through the ordinary
    {!assign} path. *)

val assign_frozen : t -> task -> proc:int -> start:float -> finish:float -> unit
(** Pins a ready task as executed history: like {!assign} but with an
    explicit measured [finish] (any finite value [>= start] — slowdown
    faults and real spin-work make measured durations differ from the
    modelled [comp]), and permitted on masked processors (the task ran
    before the processor died; its output data remains available).
    {!validate} skips the [finish = start + comp] and overlap checks for
    frozen tasks, but still holds {e new} tasks to every edge out of
    them. *)

val is_frozen : t -> task -> bool

val mask_proc : t -> int -> unit
(** Removes a processor from further consideration: {!assign} and
    {!min_est_into} refuse it. Already-placed (frozen) work is kept. *)

val proc_alive : t -> int -> bool

val num_alive : t -> int
(** Number of unmasked processors. *)

val advance_prt : t -> int -> float -> unit
(** [advance_prt s p time] floors processor [p]'s ready time at [time]
    ([prt <- max prt time]): a rescheduler uses it to account for
    elapsed real time and in-flight work on live processors.
    @raise Invalid_argument on a non-finite or negative [time]. *)

(** {1 Queries on the partial schedule} *)

val is_scheduled : t -> task -> bool

val is_ready : t -> task -> bool
(** All predecessors scheduled, task itself not scheduled. (The paper
    defines readiness in terms of finished parents; for a compile-time
    list scheduler "scheduled" is the right notion.) *)

val ready_tasks : t -> task list
(** All currently ready tasks; O(V + E). For tests and oracles. *)

val num_scheduled : t -> int

val is_complete : t -> bool

val proc : t -> task -> int
(** @raise Invalid_argument if unscheduled. *)

val start_time : t -> task -> float
(** @raise Invalid_argument if unscheduled. *)

val finish_time : t -> task -> float
(** @raise Invalid_argument if unscheduled. *)

val prt : t -> int -> float
(** Processor ready time; 0 for an idle-since-boot processor. *)

val tasks_on : t -> int -> task list
(** Tasks assigned to a processor, in assignment order. *)

(** {1 The paper's timing quantities} *)

val lmt : t -> task -> float
(** @raise Invalid_argument unless the task is ready or scheduled. *)

val enabling_proc : t -> task -> int option
(** [None] for entry tasks (no messages). *)

val enabling_proc_id : t -> task -> int
(** Allocation-free variant of {!enabling_proc}: [-1] for entry tasks.
    Hot-path schedulers use this to avoid the [option] box. *)

val emt : t -> task -> proc:int -> float

val est : t -> task -> proc:int -> float

val is_ep_type : t -> task -> bool
(** EP-type test; entry tasks are non-EP by convention (no enabling
    processor), matching the paper's initialization. *)

val min_est_over_procs : t -> task -> int * float
(** Brute-force [(argmin, min)] of [est] over all processors (lowest
    processor id wins ties). O(P * in-degree); used by ETF and by the
    Theorem-3 oracle. *)

val min_est_into : t -> task -> dest:float array -> int
(** Allocation-free variant of {!min_est_over_procs}: returns the argmin
    processor and writes the minimum EST into [dest.(0)] ([dest] must
    have length at least 1). ETF's inner loop calls this once per
    (ready task, iteration) pair. Masked processors are skipped.
    @raise Invalid_argument if every processor is masked. *)

(** {1 Whole-schedule results} *)

val makespan : t -> float
(** Parallel completion time [max_p PRT p]; 0 for the empty schedule. *)

val execution_order : t -> task list array
(** Per-processor execution order of a complete schedule: each
    processor's tasks sorted by (start, finish, topological position),
    which stays dependency-consistent even for zero-duration tasks. The
    simulator, the static engine and the runtime's replays all execute
    this order.
    @raise Invalid_argument if some task is unscheduled. *)

val validate : t -> (unit, string list) result
(** Checks that the schedule is complete and feasible: every task
    scheduled exactly once on a real processor; no two tasks overlap on
    a processor; every task starts no earlier than each predecessor's
    finish plus the (zeroed-if-local) communication cost; finish = start
    + comp. Returns all violations found. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: scheduled count and makespan. *)
