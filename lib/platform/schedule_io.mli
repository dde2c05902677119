open! Flb_taskgraph

(** Plain-text schedule files, so schedules survive the process that
    computed them (and can be validated or visualized later by the
    CLI).

    Format, in the line syntax of task-graph files
    ({!Flb_taskgraph.Text_syntax}: blank-separated fields, ['#']
    comments, LF or CRLF line ends, OCaml int and float literals):

    {v
    schedule <num_tasks> <num_procs>
    assign <task> <proc> <start>
    v}

    One [assign] line per task, any order. *)

exception Parse_error of { line : int; message : string }

val to_string : Schedule.t -> string
(** @raise Invalid_argument if the schedule is incomplete. *)

val of_string : Taskgraph.t -> Machine.t -> string -> Schedule.t
(** Rebuilds the schedule against the given graph and machine.
    Assignments are replayed in dependency-compatible order, so any
    complete assignment of a DAG loads; feasibility is {e not} checked
    here — run {!Schedule.validate} on the result.
    @raise Parse_error on malformed input, task/processor ids out of
    range, duplicate or missing assignments, or header mismatch with
    the graph/machine. *)

val save : Schedule.t -> path:string -> unit

val load : Taskgraph.t -> Machine.t -> path:string -> Schedule.t
