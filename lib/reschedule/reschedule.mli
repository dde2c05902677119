open! Flb_platform

(** Fault-reactive incremental rescheduling.

    FLB's O(V (log W + log P) + E) cost makes rescheduling cheap enough
    to call {e during} a run: when a domain dies or degrades, the
    runtime snapshots the executed prefix ({!Snapshot}), and this module
    re-runs a list scheduler over the unexecuted frontier with that
    prefix pinned as frozen history — dead processors masked out of the
    Flat_heap universes, live processors' ready times floored at the
    fault time. The result is a complete, validated schedule whose
    frozen part matches reality and whose live part covers exactly the
    remaining work. *)

type entry = {
  name : string;
  resume : Schedule.t -> Schedule.t;
      (** Completes a seeded schedule in place and returns it. *)
  frontier_only : bool;
      (** Whether [resume]'s choices for the unplaced tasks read only
          those tasks, the placed tasks they depend on directly, and the
          processor ready times. A streaming round ([Scheduler_loop])
          then merges just each stream's frontier, with the same
          placements as merging its whole history. FLB, ETF, FCP,
          HLFET and DLS have it: their priorities are bottom levels over
          the unplaced successors, their start times read the direct
          predecessors and the ready times, and their remaining ties go
          to the lower task id, whose order a frontier merge keeps. MCP
          does not: its ALAP times subtract from the whole graph's
          critical-path length, and its random tie values are drawn by
          task index. ISH does not: it inserts tasks into idle gaps
          anywhere on a processor's timeline. Fixed per scheduler. *)
}

val entries : entry list
(** Every resumable scheduler: FLB, ETF, MCP, FCP, HLFET, DLS, ISH.
    Clustering-based algorithms are excluded (they cannot complete a
    half-placed schedule). *)

val names : string list

val find : string -> entry option
(** Case-insensitive lookup. *)

val run : ?algo:string -> Snapshot.t -> Schedule.t
(** [run ~algo snapshot] = seed the snapshot ({!Snapshot.seed}) and let
    [algo] (default ["FLB"]) complete it. On an empty snapshot (no
    frozen history, no dead processors, no ready floors) this reproduces
    [algo]'s from-scratch schedule bit for bit.
    @raise Invalid_argument on an unknown or non-resumable algorithm. *)
