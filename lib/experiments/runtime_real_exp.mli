(** Predicted vs. measured: execute FLB schedules on real domains.

    The whole premise of compile-time load balancing is that the
    schedule's analytic makespan predicts execution. This experiment
    closes that loop with {!Flb_runtime}: for each Fig. 4 workload and
    domain count it schedules the instance, executes the schedule with
    the static engine (tasks burn calibrated spin-work, cross-domain
    edges charge their communication weight as real delay), executes the
    same DAG under the work-stealing engine and under the locality-aware
    affinity engine (the same schedule demoted to hints), and reports
    real makespans in weight units next to the prediction.

    Two ratios matter: [static_ratio] (measured static over predicted —
    how honest the analytic model is, ideally close to 1) and
    [steal_vs_static] (dynamic balancing over compile-time balancing on
    the same hardware — the paper's argument quantified on a real
    machine). Wall-clock numbers are machine-dependent, so the table is
    printed (or written as CSV) and never asserted; perfbench's
    [execute] workload is the measured, host-recorded form of this
    comparison. *)

type row = {
  workload : string;
  tasks : int;
  domains : int;
  predicted_units : float;  (** the FLB schedule's analytic makespan *)
  static_units : float;  (** measured static-engine makespan, weight units *)
  steal_units : float;  (** measured stealing-engine makespan, weight units *)
  affinity_units : float;
      (** measured affinity-engine makespan (same schedule as hints) *)
  static_ratio : float;  (** [static_units /. predicted_units] *)
  steal_vs_static : float;  (** [steal_units /. static_units] *)
  affinity_vs_steal : float;
      (** [affinity_units /. steal_units] — below 1 when the hints beat
          blind stealing *)
  hint_hit_rate : float;
      (** fraction of tasks the affinity engine ran on their scheduled
          domain *)
  steals : int;  (** successful steals in the stealing run *)
}

val run :
  ?algorithm:Registry.t ->
  ?suite:Workload_suite.workload list ->
  ?ccr:float ->
  ?domains_list:int list ->
  ?unit_ns:float ->
  unit ->
  row list
(** Defaults: FLB on {!Workload_suite.fig4_suite} shrunk to V≈300 (real
    execution burns real time), CCR 0.2, domains {2, 4, 8}, 20 µs per
    weight unit. Deterministic workload instances (seed 1); measured
    times are wall-clock and therefore noisy. *)

val render : row list -> string
(** The table, headed by the host's core count; a row whose domains
    outnumber the cores is marked oversubscribed ({!Table.domains_cell}). *)

val to_csv : row list -> string
