(** Extension experiment E9: grain packing before scheduling.

    The paper's reference [4] argues for raising task granularity before
    list scheduling. This experiment schedules chain-rich graphs at fine
    grain and after {!Flb_taskgraph.Coarsen.merge_chains} with several
    grain caps, reporting FLB's makespan (on the original time base —
    the coarse schedule is a legal schedule of the fine graph since
    merged chains run contiguously) and its scheduling time. *)

type cell = {
  workload : string;
  ccr : float;
  max_grain : float;  (** [infinity] = unlimited merging *)
  coarse_tasks : int;
  makespan : float;
  sched_seconds : float;  (** one timed run after a warm-up ({!Cost_exp.time}) *)
}

val run : ?procs:int -> ?ccrs:float list -> ?grains:float list -> unit -> cell list
(** Defaults: parallel chains and LU at about 2000 tasks; P = 8;
    CCR in {0.2, 5.0}; grain caps {1 (no merging), 4, 16, unlimited}. *)

val render : cell list -> string
