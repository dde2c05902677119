(** Machine-readable performance-regression harness.

    Measures, for every scheduler in {!Registry.paper_set} on the Fig. 2
    workload suite, two per-task metrics:

    - [ns_per_task]: best-of-N wall time per scheduled task (noisy;
      recorded as a trajectory, never asserted in CI);
    - [bytes_per_task]: best-of-N [Gc.allocated_bytes] delta of one run
      divided by the task count. The mutator's allocation is
      deterministic, but on OCaml 5 the delta sporadically includes a
      large runtime-internal lump, so the minimum over repeats is the
      clean figure — and it {e is} asserted against the committed
      baseline.

    The report serializes to the committed [BENCH_schedulers.json]; a
    minimal JSON reader loads past baselines back so CI can diff
    allocation behaviour without any external tooling. *)

(** Strict JSON reader/writer helpers for the subset the reports in this
    repository emit (objects, arrays, strings, numbers, booleans, null;
    ASCII escapes). Shared by {!Regress} itself, sibling experiments
    and the bench harness so none of them grows a private parser. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val escape : string -> string
  (** Body of a JSON string literal (no surrounding quotes). *)

  val parse_exn : string -> t
  (** @raise Parse_error on malformed input or trailing content. *)

  val parse : string -> (t, string) result

  val field : string -> t -> t
  (** @raise Parse_error if missing or not applied to an object. *)

  val str : t -> string
  (** @raise Parse_error unless a string. *)

  val num : t -> float
  (** @raise Parse_error unless a number. *)
end

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
  mode : string;  (** ["full"], ["quick"], or ["full+quick"] *)
  entries : entry list;
}

val run : ?quick:bool -> ?repeats:int -> unit -> report
(** Runs one suite. [quick] (default false) shrinks graphs to V≈400 for
    smoke use; the full suite uses V≈2000. [repeats] overrides the
    best-of count for both metrics. *)

val run_baseline : ?repeats:int -> unit -> report
(** Runs the full {e and} quick suites and concatenates their entries
    (mode ["full+quick"]). This is what [--regress] writes to the
    committed [BENCH_schedulers.json]: bytes/task is not size-independent
    for every scheduler, so the CI quick run needs quick entries to diff
    against while the full entries document the paper-scale figures. *)

val render : report -> string
(** Human-readable table. *)

val to_json : report -> string

val of_json : string -> (report, string) result
(** Parses exactly the documents {!to_json} produces (strict JSON subset:
    one object with string/number fields and one array of entry
    objects). *)

val check :
  baseline:report -> current:report -> tolerance:float -> (unit, string list) result
(** Compares allocation metrics of [current] against [baseline], keyed by
    (scheduler, workload, procs, tasks) — the task count is part of the
    key so a quick run is only ever compared against quick baseline
    entries. A pair fails when the relative difference in
    [bytes_per_task] exceeds [tolerance] and the absolute difference
    exceeds a 64-byte slack; an entry present in [current] with no
    matching baseline entry also fails. Timing fields are deliberately
    ignored. *)
