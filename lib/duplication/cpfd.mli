open! Flb_taskgraph
open! Flb_platform

(** CPFD — Critical Path Fast Duplication (after Ahmad & Kwok, the
    paper's reference [1]; simplified).

    Where {!Dsh} walks tasks in plain bottom-level order, CPFD is
    critical-path-driven: tasks are classified as critical-path nodes
    (CPN — on a longest path), in-branch nodes (IBN — ancestors of some
    CPN) and out-branch nodes (OBN — everything else). CPNs are
    scheduled in path order, each preceded recursively by its still
    unscheduled IBN ancestors (most critical message first); OBNs
    follow in bottom-level order. Every placement uses the same
    duplication evaluation as DSH.

    Simplifications versus the original (DESIGN.md §5): a single
    critical path (deterministic choice) rather than re-computation
    after every step, and end-of-timeline duplication without slot
    packing. *)

val run : ?max_dups_per_task:int -> Taskgraph.t -> Machine.t -> Dup_schedule.t
(** The result passes {!Dup_schedule.validate}. [max_dups_per_task]
    defaults to 8. *)

(** Node classification, exposed for tests and instrumentation. *)
type node_class = Cpn  (** on the chosen critical path *) | Ibn | Obn

val classify : Taskgraph.t -> node_class array
