open! Flb_taskgraph
open! Flb_platform

(** DLS — Dynamic Level Scheduling (Sih & Lee, 1993; cited as a
    high-cost one-step alternative in the paper's introduction).

    At each iteration the (ready task, processor) pair maximizing the
    dynamic level [SL(t) - EST(t, p)] is scheduled, where SL is the
    static level (computation-only bottom level). Like ETF this costs
    O(W P) per iteration; it trades ETF's greedy earliest start for a
    bias towards critical tasks. *)

val run : ?probe:Flb_obs.Probe.t -> Taskgraph.t -> Machine.t -> Schedule.t

val run_into : ?probe:Flb_obs.Probe.t -> Schedule.t -> Schedule.t
(** Completes a partial schedule in place (and returns it); see
    {!Etf.run_into} for the seeded-schedule contract. *)
