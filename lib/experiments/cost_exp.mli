open! Flb_taskgraph
open! Flb_platform

(** Scheduling cost: Figure 2, extension experiment E7 and the
    allocation gate all read this one measurement.

    A measurement is one warm-up run, then the best wall time and the
    best [Gc.allocated_bytes] delta over [repeats] timed runs, then one
    untimed run under a counting probe ({!Flb_obs.Probe}) for the
    queue-operation counters the paper's complexity bounds are stated
    in. Both timed figures are best-of-N, time for the usual scheduling
    noise. On OCaml 5.1.1 [Gc.allocated_bytes] counts the minor heap's
    current allocation at an eighth until a minor collection folds it
    in, so each timed run is bracketed by [Gc.minor ()] calls outside
    the clock's window: the delta is then exactly the bytes the run
    allocated, in either heap, whatever ran before it. This is the only
    module of the experiments library that reads a clock or the
    allocation counter.

    Figure 2's claims are the ordering and the shape in P: ETF far
    costliest and growing steeply with P, MCP growing moderately,
    DSC-LLB flat, FCP and FLB cheapest and nearly flat. E7's claim is
    the O(V (log W + log P) + E) bound: FLB's queue operations per task
    stay below a small constant while ETF's time per task grows with W
    and P. *)

type sample = {
  seconds : float;  (** best wall time of one run *)
  bytes : float;  (** fewest bytes allocated by one run *)
}

val time : repeats:int -> (unit -> 'a) -> 'a * sample
(** [time ~repeats f] calls [f] once to warm up, then [repeats] more
    times under the clock and the allocation counter, each between two
    [Gc.minor ()] calls outside the timed window. Returns the warm-up's
    result and the best of the timed runs. *)

type cell = {
  tasks : int;  (** tasks per graph (the mean, for a {!fig2} cell) *)
  edges : int;  (** edges per graph (the mean, for a {!fig2} cell) *)
  procs : int;
  algorithm : string;
  ns_per_task : float;
  bytes_per_task : float;
  task_ops_per_task : float;
      (** task-queue operations; 0 for algorithms without probe support *)
  proc_ops_per_task : float;  (** processor-queue operations; likewise *)
  peak_ready : int;  (** largest ready set; 0 without probe support *)
}

val measure : repeats:int -> Registry.t -> Taskgraph.t -> Machine.t -> cell
(** One graph on one machine: {!time} with [repeats], then the counting
    run. *)

val fig2 :
  ?algorithms:Registry.t list ->
  ?suite:Workload_suite.workload list ->
  ?ccrs:float list ->
  ?procs:int list ->
  ?repeats:int ->
  ?instances_per_cell:int ->
  unit ->
  cell list
(** One cell per (P, algorithm): every instance of every (workload, CCR)
    pair is measured, and the per-task figures are totals over the
    graphs divided by their total task count. Defaults: the paper's
    five algorithms, the Fig. 4 suite, CCR {0.2, 5.0}, P in the paper's
    {2 .. 32} and on to 512 in powers of two, best of 3, 2 instances per
    cell. *)

val scaling :
  ?sizes:int list ->
  ?procs:int list ->
  ?repeats:int ->
  unit ->
  cell list
(** E7: FLB, FCP and ETF on one Stencil instance (CCR 1.0, seed 1) per
    size, one cell per (V, P, algorithm). Defaults:
    V in {250, 500, 1000, 2000, 4000}, P in {4, 32}, best of 3. *)

val render_fig2 : cell list -> string
(** Rows = P; ns/task, then bytes/task, per algorithm. The title states
    the mean task count the cells measured. *)

val render_scaling : cell list -> string
(** Rows = (V, P); ns/task, bytes/task and task-queue operations per
    task per algorithm, and the peak ready set. *)

val to_csv : cell list -> string
(** Every field of every cell, one row per cell. *)
