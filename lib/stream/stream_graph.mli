open! Flb_taskgraph

(** A task graph under construction over the wire.

    Clients discover work as they go: tasks and edges arrive in batches
    and the scheduler dispatches a rolling frontier between batches, so
    this builder must accept appends {e after} parts of the graph have
    already been placed, and must answer bad input with structured
    errors instead of the exceptions {!Taskgraph.Builder} raises (the
    input crossed a trust boundary).

    The one irreversible transition is {e dispatch}: once the scheduling
    loop has placed a task and told the client, the task's incoming edge
    set is sealed — accepting a new edge into it would invalidate a
    placement the client may already be acting on. Such edges are
    rejected with {!error.Edge_into_dispatched}. Edges {e out} of a
    dispatched task are fine: that is exactly the cross-frontier
    dependence the rolling schedule exists to honour.

    The tasks and edges are stored in a {!Taskgraph.Builder}, the one
    store that checks every graph in the library for duplicate edges
    and cycles; this module turns its checks into structured errors and
    adds the dispatch marks and the seal. Each scheduling round merges its
    streams into one builder with {!append_to} and builds one CSR
    {!Taskgraph.t}, so the round reuses the allocation-free scheduler hot
    paths unchanged. *)

type t

type error =
  | Unknown_task of int  (** Edge endpoint not (yet) added. *)
  | Self_edge of int
  | Duplicate_edge of int * int
  | Edge_into_dispatched of int
      (** The destination was already placed and announced. *)
  | Bad_weight of float  (** Negative or non-finite comp/comm. *)
  | Cyclic of int  (** The edge set has a cycle through this task. *)
  | Sealed  (** Appends after {!seal}. *)

val error_to_string : error -> string

val create : ?expected_tasks:int -> unit -> t

val add_tasks : t -> comps:float array -> (int, error) result
(** Appends one weighted task per element and returns the id of the
    first (ids are consecutive from the current {!num_tasks}). On error
    nothing is appended. *)

val add_edge : t -> src:int -> dst:int -> comm:float -> (unit, error) result

val seal : t -> (unit, error) result
(** Declares the graph complete. Runs the cycle check; on [Cyclic] the
    stream is left unsealed (the graph is poisoned — see
    {!check_acyclic}). Sealing an already-sealed graph is a no-op. *)

val sealed : t -> bool

val check_acyclic : t -> (unit, error) result
(** {!Taskgraph.Builder.find_cycle} over the current edge set. The
    scheduling loop calls this before every round: {!Taskgraph.Builder.build}
    raises on cycles, and a raise mid-round would take down every stream
    merged into the same super-DAG, so a cyclic stream must be detected
    and excluded first. *)

val num_tasks : t -> int

val mark_dispatched : t -> int -> unit

val is_dispatched : t -> int -> bool

val pending : t -> int
(** Tasks added but not yet dispatched. *)

val append_to : t -> Taskgraph.Builder.t -> int
(** [append_to s b] adds [s]'s tasks to [b], then its edges in insertion
    order ({!Taskgraph.Builder.append}), and returns the id of [s]'s task
    0 in [b]. *)
