(** Recovery-policy comparison under scripted kill faults (the
    robustness story of fault-reactive rescheduling).

    For each (workload, domain count) cell of the Fig. 4 suite: build
    the FLB schedule, kill the highest-numbered domain a quarter of the
    way into the predicted makespan, and compare the three static-engine
    recovery policies on the deterministic virtual clock — no recovery
    (how much work is stranded), steal-queues (drain the dead queue in
    place), and frontier rescheduling. The same fault is then replayed
    on the real engine with resched recovery to measure the actual
    per-event reschedule latency from the [rt_resched_latency_ns]
    histogram. *)

type row = {
  workload : string;
  tasks : int;
  domains : int;
  fault : string;  (** the injected spec, [Fault.to_string] syntax *)
  predicted_units : float;  (** fault-free analytic makespan *)
  none_completed : int;
      (** tasks that still complete with no recovery (virtual clock) *)
  steal_units : float;  (** virtual makespan under steal recovery *)
  resched_units : float;  (** virtual makespan under resched recovery *)
  resched_over_steal : float;
  rescheds : int;  (** reschedule events in the virtual resched run *)
  real_resched_units : float;  (** real-engine makespan, resched recovery *)
  resched_latency_us : float;
      (** mean real reschedule latency per event, µs; [nan] if the kill
          landed after the real run finished *)
}

val run :
  ?algorithm:Registry.t ->
  ?suite:Workload_suite.workload list ->
  ?ccr:float ->
  ?domains_list:int list ->
  ?unit_ns:float ->
  ?kill_frac:float ->
  ?resched_algo:string ->
  unit ->
  row list

val render : row list -> string
(** The table, headed by the host's core count; a row whose domains
    outnumber the cores is marked oversubscribed ({!Table.domains_cell}). *)

val to_csv : row list -> string
