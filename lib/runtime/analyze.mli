open! Flb_taskgraph
open! Flb_platform

(** Post-mortem makespan attribution.

    Reads a runtime trace — a real run's event log
    ({!Flb_obs.Flight_recorder.to_jsonl}) or a virtual-clock rendering
    ({!jsonl_of_times}); {!Flb_obs.Trace.to_jsonl} writes both in one
    line schema, and each line is read back exactly by
    {!Flb_prelude.Json.of_string} — and reconstructs what actually
    determined the makespan:

    - the {e realized critical path}: walking back from the
      last-finishing task through the tightest constraint on each start
      (the dependency with the latest comm-lagged arrival, or the
      same-domain predecessor's finish, whichever is later);
    - per-task {e slack}: how far each task's finish could slip without
      extending the makespan, over the realized constraint DAG
      (dependency edges plus same-domain execution order) — zero along
      the critical path;
    - per-domain busy/idle totals and steal / recover / stall / kill
      counts;
    - a ranked {e straggler} list against a predicted schedule's
      [(ST, FT)], when one is supplied.

    Timestamps are taken as-is, so a virtual-clock trace (weight units)
    and the schedule's analytic times compare directly. A real run's
    trace is in seconds, and its meta line carries the run's [unit_ns]:
    predictions and edge weights are multiplied by [unit_ns /. 1e9] to
    bring them into trace units. Without a positive [unit_ns] the
    factor is 1. *)

(** {1 Parsed runs} *)

type exec = { task : int; domain : int; start : float; finish : float }

type mark = {
  mark_name : string;  (** [steal], [recover], [stall], [killed], ... *)
  mark_domain : int;
  mark_ts : float;
  mark_args : (string * float) list;
}

type run = {
  execs : exec list;  (** task spans on domain tracks, input order *)
  marks : mark list;  (** instants on domain tracks *)
  meta : (string * string) list;  (** a dump's [{"type":"meta"}] line *)
}

val of_jsonl : string -> (run, string) result
(** Parse JSONL trace text. Lines that are not task spans or instants
    on domain tracks ([D0], [D1], ...) — request tracks, probe phase
    tracks — are skipped; a line that is not one JSON object is an
    [Error] naming the line, and so is a task span without a numeric
    [ts] or [dur] (a [null] one included). *)

val load : string -> (run, string) result
(** {!of_jsonl} on a file's contents; I/O failures as [Error]. *)

val num_domains : run -> int
(** The team size: one past the highest domain a task span or an
    instant names, or the meta line's [domains] when that is larger (a
    domain that recorded nothing still ran). At least 1. *)

(** {1 Reports} *)

type task_stat = {
  t_task : int;
  t_domain : int;
  t_start : float;
  t_finish : float;
  t_slack : float;  (** 0 on the realized critical path *)
  t_on_cp : bool;
  t_predicted_finish : float;  (** [nan] without a schedule *)
  t_lateness : float;  (** realized minus predicted finish; [nan] without *)
}

type domain_stat = {
  d_domain : int;
  d_tasks : int;
  d_busy : float;  (** sum of task durations *)
  d_idle : float;  (** makespan minus busy *)
  d_steals : int;
  d_recovers : int;
  d_stalls : int;
  d_killed : bool;
}

type report = {
  makespan : float;  (** last realized finish *)
  executed : int;
  total : int;  (** tasks in the graph *)
  comm_charged : bool;
      (** inferred: false iff some realized cross-domain dependency
          violates [start >= finish + w], i.e. the run didn't charge
          communication *)
  critical_path : int list;  (** realized CP, first task first *)
  per_task : task_stat option array;  (** by task id; [None] = never ran *)
  per_domain : domain_stat array;
  stragglers : (int * float) list;
      (** (task, lateness) for tasks later than predicted, worst first;
          empty without a schedule *)
}

val analyze :
  ?schedule:Schedule.t ->
  graph:Taskgraph.t ->
  run ->
  (report, string) result
(** The run's [unit_ns] (see above) scales the schedule's times and the
    edge weights (the messages' times) into trace units. [Error] on an
    empty run, out-of-range task ids, negative domains or negative
    durations. *)

val render : report -> string
(** Human-readable: summary line, the critical path with per-task
    slack, per-domain breakdown, top stragglers. *)

val to_json : report -> string
(** The whole report as one JSON object. *)

val jsonl_of_times :
  ?meta:(string * string) list ->
  start:float array ->
  finish:float array ->
  exec_domain:int array ->
  unit ->
  string
(** Render virtual-clock style [(start, finish, exec_domain)] arrays in
    the shared JSONL schema, as task spans in start order through
    {!Flb_obs.Trace.to_jsonl} (tasks with [exec_domain < 0] are
    skipped), so deterministic outcomes feed {!of_jsonl} and golden
    tests. @raise Invalid_argument if array lengths differ. *)
