(** Weighted directed acyclic task graphs.

    A node is a {e task}: a sequentially executed, non-preemptible unit
    with a computation cost. An edge [(t, t')] is a dependence with a
    communication cost, paid only when [t] and [t'] execute on different
    processors (the machine model zeroes intra-processor communication).

    Tasks are dense integer identifiers [0 .. num_tasks-1], assigned in
    creation order by {!Builder}. The structure is immutable after
    {!Builder.build}; all arrays returned by accessors are owned by the
    graph and must not be mutated by callers.

    Edges are stored in compressed-sparse-row (CSR) form: per direction
    one flat identifier array and one parallel weight array, indexed
    through an offset array of length [num_tasks + 1]. This is the only
    adjacency: callers stream it through {!iter_succs}/{!iter_preds} or
    read the raw {!Csr} arrays, and neither allocates. *)

type task = int
(** Task identifier. *)

type t

(** {1 Construction} *)

module Builder : sig
  (** Incremental construction, and the one place a graph's tasks and
      edges are stored, duplicate-checked and cycle-checked before it is
      frozen. The builder stores edges as a forward star: flat growable
      [int]/[float] arrays in insertion order, each edge chained to the
      previous edge out of the same source. Adding an edge allocates
      nothing beyond amortized array growth and checks for a duplicate by
      walking its source's chain (O(out-degree)); {!build} counting-sorts
      the edges into the CSR arrays in O(V + E), each task's slots in
      insertion order. *)

  type graph := t

  type t

  val create : ?expected_tasks:int -> unit -> t

  val add_task : t -> comp:float -> task
  (** Registers a task and returns its identifier (consecutive from 0).
      @raise Invalid_argument if [comp] is negative or not finite. *)

  val add_edge : t -> src:task -> dst:task -> comm:float -> unit
  (** Adds the dependence [src -> dst].
      @raise Invalid_argument on unknown endpoints, self edges, duplicate
      edges, or a negative/non-finite [comm]. *)

  val num_tasks : t -> int

  val mem_edge : t -> src:task -> dst:task -> bool
  (** Whether the edge [src -> dst] has been added; [false] for unknown
      tasks. O(out-degree of [src]). *)

  val comp : t -> task -> float
  (** Computation cost of a task added so far.
      @raise Invalid_argument on an unknown task. *)

  val num_edges : t -> int

  val iter_edges : t -> first:int -> (task -> task -> float -> unit) -> unit
  (** [iter_edges b ~first f] calls [f src dst comm] for each edge from
      the [first]-th added on, in insertion order. *)

  val find_cycle : t -> task option
  (** [None] when the edges added so far are acyclic. Otherwise the
      lowest task that Kahn's algorithm leaves with unconsumed incoming
      edges (one on or downstream of a cycle): the task {!build}'s error
      names. O(V + E); the builder is not frozen. *)

  val find_cycle_after : t -> tasks:int -> edges:int -> task option
  (** {!find_cycle} for a builder whose first [tasks] tasks no later
      edge enters: [tasks] and [edges] are its {!num_tasks} and
      {!num_edges} at some earlier moment, and none of the edges added
      since ends below [tasks]. Such a task lies on no cycle, so Kahn's
      pass runs over the later tasks and edges alone, in O(their number),
      and names the witness {!find_cycle} would. *)

  val build : t -> graph
  (** Freezes the builder.
      @raise Invalid_argument if the edges contain a cycle (the error
      message names the task {!find_cycle} returns). The builder must not
      be used afterwards. *)
end

val of_arrays : comp:float array -> edges:(task * task * float) array -> t
(** Convenience wrapper around {!Builder} for literal graphs. *)

(** {1 Accessors} *)

val num_tasks : t -> int

val num_edges : t -> int

val comp : t -> task -> float
(** Computation cost. *)

val iter_succs : t -> task -> (task -> float -> unit) -> unit
(** [iter_succs g t f] calls [f successor comm] for each outgoing edge of
    [t], in insertion order, streaming the CSR arrays directly. *)

val iter_preds : t -> task -> (task -> float -> unit) -> unit
(** [iter_preds g t f] calls [f predecessor comm] for each incoming edge. *)

(** Raw CSR arrays, for allocation-free edge sweeps (index edge slots
    [offsets.(t) .. offsets.(t+1) - 1]). All arrays are owned by the
    graph: do not mutate. *)
module Csr : sig
  val succ_offsets : t -> int array
  (** Length [num_tasks + 1]; [succ_offsets g].(num_tasks g) = num_edges g]. *)

  val succ_targets : t -> int array
  (** Length [num_edges], grouped by source task, insertion order. *)

  val succ_weights : t -> float array
  (** Parallel to {!succ_targets}. *)

  val pred_offsets : t -> int array

  val pred_sources : t -> int array

  val pred_weights : t -> float array
end

val out_degree : t -> task -> int

val in_degree : t -> task -> int

val is_entry : t -> task -> bool
(** No incoming edges. *)

val is_exit : t -> task -> bool
(** No outgoing edges. *)

val entry_tasks : t -> task list

val exit_tasks : t -> task list

val iter_edges : (task -> task -> float -> unit) -> t -> unit
(** Visits every edge once, ordered by source task. *)

val comm : t -> src:task -> dst:task -> float option
(** Communication cost of the given edge, if it exists. O(out-degree). *)

(** {1 Aggregates} *)

val total_comp : t -> float
(** Sum of all computation costs; the sequential execution time, used as
    the numerator of speedup. *)

val total_comm : t -> float

val ccr : t -> float
(** Communication-to-computation ratio: average communication cost over
    average computation cost. 0 for graphs without edges.
    @raise Invalid_argument on an empty graph. *)

val pp : Format.formatter -> t -> unit
(** Short human-readable summary (task/edge counts, CCR). *)

val pp_full : Format.formatter -> t -> unit
(** Complete listing of tasks and edges; for debugging small graphs. *)
