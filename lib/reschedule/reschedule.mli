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

val run : ?algo:string -> Snapshot.t -> Schedule.t
(** [run ~algo snapshot] = seed the snapshot ({!Snapshot.seed}) and let
    [algo] (default ["FLB"]), a {!Registry.resumable} entry, complete
    it. On an empty snapshot (no frozen history, no dead processors, no
    ready floors) this reproduces [algo]'s one-shot schedule bit for
    bit.
    @raise Invalid_argument on an unknown or non-resumable algorithm. *)
