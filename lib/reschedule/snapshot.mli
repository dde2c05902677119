open! Flb_taskgraph
open! Flb_platform

(** A consistent picture of a partially executed run, taken at a fault.

    The snapshot splits the graph into an {e executed prefix} — tasks
    the engine has finished or committed to (in-flight work is frozen
    with its predicted finish time; a claimed task runs to completion
    even if its domain is about to be preempted by the coordinator's
    queue swap) — and the {e unexecuted frontier}, everything else. The
    prefix is immutable history; only the frontier is rescheduled. *)

type frozen = {
  task : Taskgraph.task;
  proc : int;  (** the domain it ran (or is running) on — may be dead *)
  start : float;  (** measured start, in schedule time units *)
  finish : float;
      (** measured finish for completed tasks, predicted finish for
          in-flight ones *)
}

type t = private {
  graph : Taskgraph.t;
  machine : Machine.t;
  frozen : frozen array;
  ready : float array;  (** per-processor ready-time floor *)
  dead : bool array;
}

val make :
  ?dead:int list ->
  ?ready:(int * float) list ->
  ?frozen:frozen list ->
  Taskgraph.t ->
  Machine.t ->
  t
(** Validates and packs a snapshot.

    [dead] lists the processors that must receive no new work; [ready]
    gives per-processor ready-time floors (typically the fault time for
    every live processor, raised to the predicted finish of in-flight
    work); [frozen] is the executed prefix.

    @raise Invalid_argument if a processor or task id is out of range,
    every processor is dead, a ready floor or frozen time is negative or
    non-finite, a finish precedes its start, a task is frozen twice, or
    the frozen set is not closed under predecessors. *)

val frontier_size : t -> int
(** Number of unexecuted tasks. The frontier is never extracted as a
    sub-DAG: {!Reschedule.run} keeps original task ids by seeding the
    full graph with the prefix pinned ({!seed}), which preserves
    cross-frontier message times exactly. *)

val seed : t -> Schedule.t
(** A fresh schedule over the full graph with the snapshot applied:
    dead processors masked, the executed prefix pinned via
    {!Schedule.assign_frozen} in topological order, and live
    processors' ready times floored per [ready]. Ready tasks of the
    result are exactly the frontier's entry tasks; any list scheduler's
    [run_into] completes it. *)
