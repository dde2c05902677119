(** Extension experiment E8: what duplication buys (and costs).

    The paper's introduction positions duplication-based schedulers as
    higher quality at significantly higher scheduling cost. This
    experiment quantifies both on fork-heavy graphs (out-trees and
    fork–join chains, where re-computing a producer beats paying its
    message) across CCR values: schedule length of DSH versus the
    non-duplicating schedulers, the number of extra copies placed, and
    the scheduling time. *)

type cell = {
  workload : string;
  ccr : float;
  procs : int;
  algorithm : string;
  makespan : float;
  copies : int;  (** total placed copies; V for non-duplicating rows *)
  seconds : float;  (** one timed run after a warm-up ({!Cost_exp.time}) *)
}

val run :
  ?ccrs:float list -> ?procs:int list -> ?tasks:int -> unit -> cell list
(** Defaults: out-tree, fork-join and LU structures of about 500 tasks,
    CCR in {0.2, 2.0, 5.0}, P in {4, 16}; algorithms DSH, CPFD, FLB,
    MCP, ETF. *)

val render : cell list -> string
