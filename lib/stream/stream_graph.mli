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

    A round dispatches every pending task of each stream it merges
    ({!dispatch}), so the dispatched tasks are always an id prefix, the
    pending ones the suffix after it, and every edge into a pending task
    was added since the last round. The tasks and edges are stored in a
    {!Taskgraph.Builder}, the one store that checks every graph in the
    library for duplicate edges and cycles; this module turns its checks
    into structured errors and adds the dispatched prefix and the seal.
    Each scheduling round merges its streams into one builder with
    {!merge_into} and builds one CSR {!Taskgraph.t}, so the round reuses
    the allocation-free scheduler hot paths unchanged. *)

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
(** {!Taskgraph.Builder.find_cycle_after} over the pending tasks and the
    edges into them: no edge enters a dispatched task after its round,
    so none lies on a cycle, and the check costs O(pending tasks and
    edges) yet names the task a whole-graph check would. The scheduling
    loop calls this before every round: {!Taskgraph.Builder.build}
    raises on cycles, and a raise mid-round would take down every stream
    merged into the same super-DAG, so a cyclic stream must be detected
    and excluded first. *)

val num_tasks : t -> int

val pending : t -> int
(** Tasks added but not yet dispatched: the ids from
    [num_tasks - pending] on. *)

val dispatch : t -> unit
(** Marks every task dispatched; the scheduling loop calls it once it
    has announced a round's placements. *)

val merge_into :
  t ->
  Taskgraph.Builder.t ->
  frontier_only:bool ->
  frozen:(local:int -> merged:int -> unit) ->
  int
(** [merge_into s b ~frontier_only ~frozen] adds a round's view of [s]
    to [b] and returns the id in [b] of [s]'s first pending task; the
    other pending tasks follow it in order. With [frontier_only] the
    view is the frontier: the dispatched tasks that pending edges leave
    from (ascending), the pending tasks, and the edges into them, in
    O(frontier) time. Otherwise it is the whole history: every task from
    0 and every edge. Either way the merged tasks keep their relative
    order and the edges their insertion order, and [frozen] is called
    with each merged dispatched task's ids in [s] and in [b], for the
    caller to pin it at its placement. *)
