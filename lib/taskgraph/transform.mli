(** Structure-preserving task-graph transformations. *)

val transitive_reduction : Taskgraph.t -> Taskgraph.t
(** Removes every edge implied by a longer path. Note that on a
    {e weighted} graph this changes scheduling semantics (a removed
    edge's message no longer costs anything), so this is an analysis
    tool — e.g. for counting the essential dependences of a generator's
    output — not a legal pre-scheduling step. Edge weights of surviving
    edges are preserved. O(V * E / word) via bitset reachability. *)

val reverse : Taskgraph.t -> Taskgraph.t
(** Flips every edge (entries become exits). Useful for testing
    dualities: the bottom levels of the reverse are the top levels plus
    computation of the original. *)

val induced_subgraph : Taskgraph.t -> keep:(Taskgraph.task -> bool) -> Taskgraph.t * int array
(** The subgraph on the kept tasks (edges between kept tasks survive)
    together with the mapping from new ids to original ids. Relative
    task order is preserved; O(V + E). *)

type stats = {
  tasks : int;
  edges : int;
  ccr : float;
  levels : int;
  max_in_degree : int;
  max_out_degree : int;
  avg_degree : float;
  width_level_bound : int;
  comp_critical_path : float;
  parallelism : float;
      (** total computation / computation-only critical path: average
          available parallelism *)
}

val stats : Taskgraph.t -> stats
(** Summary statistics; O(V + E). @raise Invalid_argument on the empty
    graph. *)

val pp_stats : Format.formatter -> stats -> unit
