open! Flb_taskgraph
open! Flb_platform

(** Shared skeleton for static-priority list schedulers.

    MCP, FCP and HLFET all follow the same loop: keep the ready tasks in
    a priority queue under a statically computed key, repeatedly pop the
    highest-priority ready task and hand it to a processor-selection
    rule. Only the key and the rule differ. *)

val run :
  ?probe:Flb_obs.Probe.t ->
  priority:(Taskgraph.task -> float) ->
  tie:(Taskgraph.task -> float) ->
  select_proc:(Schedule.t -> Taskgraph.task -> int * float) ->
  Taskgraph.t ->
  Machine.t ->
  Schedule.t
(** [run ~priority ~tie ~select_proc g m] list-schedules [g]: while
    tasks remain, pop the ready task with the smallest
    [(priority, tie, id)] key — lexicographic, minimum first, held in a
    {!Flb_heap.Flat_heap} so the queue never allocates — and assign it
    to the [(processor, start)] returned by [select_proc] (which sees
    the current partial schedule).

    [probe] (default {!Flb_obs.Probe.null}) receives iterations,
    ready-queue operations, ready-set peaks and per-phase times; callers
    should additionally count the cost of their [select_proc] rule (e.g.
    one processor-queue op per tentative EST evaluation) and wrap their
    static priority computation in the [Priority] phase. *)

val run_into :
  ?probe:Flb_obs.Probe.t ->
  priority:(Taskgraph.task -> float) ->
  tie:(Taskgraph.task -> float) ->
  select_proc:(Schedule.t -> Taskgraph.task -> int * float) ->
  Schedule.t ->
  Schedule.t
(** The fixed-history entry point behind {!run}: completes an existing
    (possibly partially filled) schedule in place and returns it. The
    ready heap is seeded from {!Schedule.is_ready} — on a schedule
    carrying frozen history this is exactly the unexecuted frontier —
    and [select_proc] sees the seeded processor ready times; masked
    processors are excluded by the {!Schedule} primitives themselves. *)

val earliest_proc : Schedule.t -> Taskgraph.task -> int * float
(** The non-insertion rule shared by most list schedulers: the
    processor with the smallest EST (exhaustive scan, lowest id on
    ties), started at that EST. *)

val earliest_proc_insertion : Schedule.t -> Schedule.t -> Taskgraph.task -> int * float
(** [earliest_proc_insertion seeded] is the insertion variant for a run
    that completes [seeded]: it may place the task in an idle gap
    between two tasks already on a processor, provided the gap fits it
    after its messages arrive. Each processor's gaps are searched from
    its ready time in [seeded] ({!Schedule.prt}) when the rule is made —
    0 on a fresh schedule — so no task lands inside frozen history or
    before a ready floor ({!Schedule.advance_prt}). *)

val two_proc_rule : Schedule.t -> Taskgraph.task -> int * float
(** The FCP/FLB lemma's O(log P)-information rule: consider only the
    task's enabling processor and the processor that becomes idle the
    earliest; return whichever gives the smaller EST (the enabling
    processor on ties). The scan for the idle-earliest processor here is
    O(P) for simplicity; {!Fcp} keeps it in a heap. *)
