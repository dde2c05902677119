(** Machine-readable allocation gate.

    For every scheduler in {!Registry.paper_set} on the Fig. 4 suite at
    V≈400 (P = 8, CCR 1.0, seed 1), two per-task figures from
    {!Cost_exp.measure}:

    - [ns_per_task]: best-of-N wall time per scheduled task (noisy;
      recorded as a trajectory, never asserted in CI);
    - [bytes_per_task]: best-of-N bytes allocated by one run divided by
      the task count, which {e is} asserted against the committed
      baseline.

    The report serializes to the committed [BENCH_schedulers.json], the
    only file [bench/main.exe --regress] writes, through
    {!Flb_prelude.Json}, whose reader loads it back, so CI's gate
    ([--regress-check]) needs no external tooling. Cost figures at V≈2000 are [flb experiment fig2]'s
    and [flb experiment complexity]'s. *)

type entry = {
  scheduler : string;
  workload : string;
  tasks : int;  (** actual task count of the measured instance *)
  procs : int;
  ccr : float;
  ns_per_task : float;
  bytes_per_task : float;
}

type report = {
  mode : string;  (** ["quick"]: the V≈400 suite *)
  entries : entry list;
}

val run : unit -> report
(** Measures the suite, best of 3 for both figures. *)

val render : report -> string
(** Human-readable table. *)

val to_json : report -> string
(** One compact JSON object, schema ["flb-regress/1"], per-task figures
    rounded to one decimal. *)

val of_json : string -> (report, string) result
(** Reads a {!to_json} document with {!Flb_prelude.Json.of_string}:
    [Error] on text that is not strict JSON, another schema, or a
    missing or mistyped field. *)

val check :
  baseline:report -> current:report -> tolerance:float -> (unit, string list) result
(** Compares allocation metrics of [current] against [baseline], keyed by
    (scheduler, workload, procs, tasks) — bytes/task is not
    size-independent for every scheduler, so an entry measured at
    another task count never matches. A pair fails when the relative difference in
    [bytes_per_task] exceeds [tolerance] and the absolute difference
    exceeds a 64-byte slack; an entry present in [current] with no
    matching baseline entry also fails. Timing fields are deliberately
    ignored. *)
