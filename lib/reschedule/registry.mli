open! Flb_taskgraph
open! Flb_platform

(** The named scheduling algorithms, as compared in the paper: the one
    table the CLI, the daemon, streaming, the runtime's rescheduling and
    the experiments look algorithms up in. *)

type resumable = {
  resume : Schedule.t -> Schedule.t;
      (** Completes a seeded schedule in place and returns it
          ({!Reschedule.run}). *)
  frontier_only : bool;
      (** Whether [resume]'s choices for the unplaced tasks read only
          those tasks, the placed tasks they depend on directly, and the
          processor ready times. A streaming round ([Scheduler_loop])
          then merges just each stream's frontier, with the same
          placements as merging its whole history. FLB, ETF, FCP,
          HLFET, DLS and ISH have it: their priorities are bottom levels
          over the unplaced successors, their start times read the
          direct predecessors and the ready times, and their remaining
          ties go to the lower task id, whose order a frontier merge
          keeps. ISH inserts into idle gaps only after each processor's
          ready time, which every frozen task ends by. MCP does not: its
          ALAP times subtract from the whole graph's critical-path
          length, and its random tie values are drawn by task index.
          Fixed per scheduler. *)
}

type t = {
  name : string;
  describe : string;
  run : ?probe:Flb_obs.Probe.t -> Taskgraph.t -> Machine.t -> Schedule.t;
      (** [probe] defaults to {!Flb_obs.Probe.null}. The clustering-based
          entries (DSC-LLB, SARKAR-LLB) and RR ignore the probe's
          counters; {!run_with_report} still times them. *)
  resumable : resumable option;
      (** Set for the list schedulers with a fixed-history [run_into]
          entry point: FLB, ETF, MCP, FCP, HLFET, DLS, ISH.
          Clustering-based algorithms merge tasks before placing them
          and cannot complete a half-placed schedule. *)
}

val flb : t

val etf : t

val mcp : t
(** The lower-cost random-tie-break variant the paper benchmarks. *)

val fcp : t

val dsc_llb : t

val paper_set : t list
(** The five algorithms of Figures 2 and 4: MCP, ETF, DSC-LLB, FCP,
    FLB — in the paper's plotting order. *)

val extended_set : t list
(** [paper_set] plus the extensions: HLFET, DLS, ISH, SARKAR-LLB, and
    the naive round-robin baseline. *)

val resumable_set : t list
(** The entries of {!extended_set} that are {!resumable}, in its
    order. *)

val find : string -> t option
(** Case-insensitive lookup by [name] within {!extended_set}. *)

val find_resumable : string -> (t * resumable) option
(** {!find}, for a resumable entry only. *)

val names : t list -> string list

val run_with_report :
  ?tracer:Flb_obs.Trace.t ->
  ?timed:bool ->
  t ->
  Taskgraph.t ->
  Machine.t ->
  Schedule.t * Flb_obs.Probe.report
(** Run the algorithm under a fresh live probe and return its telemetry
    report alongside the schedule. [timed] (default true) records wall
    and per-phase time; an enabled [tracer] additionally gets one span
    per phase occurrence. *)
