open! Flb_taskgraph
open! Flb_platform

(** DSC-LLB — the multi-step method the paper compares against:
    {!Dsc} clustering followed by {!Llb} cluster mapping. *)

val run : ?priority:Llb.priority -> Taskgraph.t -> Machine.t -> Schedule.t
