open! Flb_taskgraph
open! Flb_platform

(** FCP — Fast Critical Path (Rădulescu & van Gemund, ICS 1999).

    The predecessor of FLB: a list scheduler with static priorities
    (bottom level, largest first) whose processor choice uses the
    two-processor lemma — only the task's enabling processor and the
    processor becoming idle the earliest can minimize its start time.
    O(V log P + E) once priorities are computed.

    FCP picks the highest-priority ready task regardless of whether it
    is the globally earliest-starting one; FLB's contribution is
    upgrading exactly that selection while keeping the cost. *)

val run : ?probe:Flb_obs.Probe.t -> Taskgraph.t -> Machine.t -> Schedule.t

val run_into : ?probe:Flb_obs.Probe.t -> Schedule.t -> Schedule.t
(** Completes a partial schedule in place (and returns it): masked
    processors never enter the idle-earliest heap, and a dead enabling
    processor disqualifies the two-processor shortcut for that task. *)
