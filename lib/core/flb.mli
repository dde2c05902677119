open! Flb_taskgraph
open! Flb_platform

(** The FLB (Fast Load Balancing) scheduling algorithm — the paper's
    contribution (Section 4).

    At every iteration FLB schedules the ready task that can start the
    earliest, on the processor achieving that start time — the ETF
    selection criterion — but finds the winning task–processor pair by
    comparing just {e two} candidates (Theorem 3):

    + the EP-type task with minimum [EST(t, EP t)] on its enabling
      processor, read off a per-processor queue of EP tasks ordered by
      effective message arrival time, via a queue of {e active}
      processors ordered by that minimum EST; and
    + the non-EP-type task with minimum last message arrival time, on
      the processor that becomes idle the earliest, read off a global
      non-EP queue ordered by LMT and a global processor queue ordered
      by ready time.

    Every queue is a {!Flb_heap.Flat_heap}, and each set of P
    per-processor queues is one heap family over a shared size-V index,
    so the queues take O(V + P) space, one iteration costs
    O(log W + log P) amortized and the whole schedule
    O(V (log W + log P) + E).

    Tie-breaking follows the paper: queue ties prefer the larger bottom
    level (longest exit path, computation + communication), and when
    both candidate pairs start at the same time the non-EP pair wins
    (its communication is already overlapped). Both choices can be
    altered for ablation studies. *)

type tie_break =
  | Bottom_level  (** the paper's rule: larger bottom level first *)
  | Task_id  (** structural: smaller task id first (ablation) *)

type options = {
  tie_break : tie_break;
  prefer_non_ep_on_tie : bool;
      (** the paper's rule is [true]; [false] prefers the EP pair
          (ablation) *)
}

val default_options : options
(** [{ tie_break = Bottom_level; prefer_non_ep_on_tie = true }]. *)

(** {1 Observation}

    The scheduler can expose each iteration's decision to an observer —
    used by {!Flb_trace} to reproduce the paper's Table 1 and by
    {!Flb_check} to verify Theorem 3 at run time. Snapshots are only
    materialized when an observer is installed; plain runs pay nothing. *)

type candidate = { task : Taskgraph.task; proc : int; est : float }

type ep_entry = {
  task : Taskgraph.task;
  emt : float;  (** effective message arrival time on the enabling proc *)
  lmt : float;
  blevel : float;
}

type iteration = {
  index : int;  (** 0-based iteration number *)
  ep_lists : (int * ep_entry list) list;
      (** per active-or-inhabited processor, EP-type tasks it enables,
          ascending by (EMT, -blevel); processors in id order *)
  non_ep_list : (Taskgraph.task * float) list;
      (** non-EP-type ready tasks with their LMT, ascending by
          (LMT, -blevel) *)
  ep_candidate : candidate option;
  non_ep_candidate : candidate option;
  chosen : candidate;
}

type observer = Schedule.t -> iteration -> unit
(** Called once per iteration with the partial schedule {e before} the
    chosen assignment is applied. *)

(** {1 Running} *)

val run :
  ?options:options ->
  ?observer:observer ->
  ?probe:Flb_obs.Probe.t ->
  Taskgraph.t ->
  Machine.t ->
  Schedule.t
(** Schedules the whole graph. The result is complete and passes
    {!Schedule.validate}. [probe] reports operation counts and (when the
    probe is timed) per-phase wall time through the shared
    {!Flb_obs.Probe} schema; the default is {!Flb_obs.Probe.null},
    which records nothing, as for the other list schedulers. A live
    untimed probe's bookkeeping is plain integer mutation and adds no
    allocation to the scheduling loop. The counters are the units of the
    paper's O(V (log W + log P) + E) bound: at most 7 task-queue
    operations per task (two insertions at readiness, three on its one
    possible demotion, two removals), and a ready-set peak never above
    the graph's width W. *)

val run_into :
  ?options:options ->
  ?observer:observer ->
  ?probe:Flb_obs.Probe.t ->
  Schedule.t ->
  Schedule.t
(** Fixed-history entry point: completes an existing partial schedule in
    place (and returns it). The ready queues are seeded from the
    schedule's live frontier, the all-procs queue holds only unmasked
    processors at their current ready times, and a ready task whose
    enabling processor is masked is classified non-EP (a dead processor
    cannot start anything). [run g m] is [run_into (Schedule.create g m)]
    exactly — same queues, same tie-breaks, same result. *)

val schedule_length : ?options:options -> Taskgraph.t -> Machine.t -> float
(** Convenience: makespan of {!run}. *)
