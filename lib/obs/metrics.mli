(** Registry of named counters, gauges and log-scale latency histograms.

    One registry per run (or per experiment row) collects everything the
    instrumented code reports, then dumps it either as Prometheus-style
    text exposition or as a single JSON object. Registration is
    idempotent by name: asking twice for the same name returns the same
    metric, so independent subsystems can share series without
    coordination.

    The registry is safe to share across OCaml 5 domains: counters and
    gauges are lock-free atomics (increments from concurrent domains
    lose no counts), while registration and histogram access are
    guarded by mutexes. Hot-path counter updates stay a single atomic
    add.

    @raise Invalid_argument when a name is re-registered with a
    different kind. *)

type t

val create : unit -> t

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment. *)

  val value : t -> int

  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val add : t -> float -> unit

  val value : t -> float

  val name : t -> string
end

(** Log-scale histogram ({!Flb_prelude.Stats.Log_histogram}) exposed as
    a Prometheus-style summary with p50/p95/p99 quantiles. *)
module Histogram : sig
  type t

  val observe : t -> float -> unit

  val count : t -> int

  val sum : t -> float

  val quantile : t -> q:float -> float
  (** @raise Invalid_argument if empty or [q] outside [\[0, 1\]]. *)

  val name : t -> string
end

val counter : t -> ?help:string -> string -> Counter.t

val gauge : t -> ?help:string -> string -> Gauge.t

val histogram : t -> ?help:string -> ?gamma:float -> string -> Histogram.t

val sanitize : string -> string
(** Fold a free-form name ("DSC-LLB") into the Prometheus metric-name
    alphabet ([a-z0-9_:]). Never empty and never starts with a digit, so
    a hostile or accidental name (quotes, newlines, "42x42") cannot
    corrupt the exposition. *)

val escape_help : string -> string
(** Escape a HELP comment per the Prometheus text format: ['\\'] and
    newline (a raw newline would terminate the comment mid-string). *)

val escape_label_value : string -> string
(** Escape a double-quoted label value: ['\\'], newline and ['"']. *)

val to_prometheus : t -> string
(** Text exposition: [# HELP]/[# TYPE] headers and one sample line per
    counter/gauge; histograms as summaries with p50/p95/p99 quantile
    lines plus [_sum] and [_count]. Names are sanitized to the
    Prometheus alphabet ([a-z0-9_:]). *)

val json : t -> Flb_prelude.Json.t
(** One JSON object, metrics in registration order; histograms dump
    count/sum/min/max/p50/p95/p99 (count and sum only while empty). The
    daemon's and the router's [stats] snapshots embed it. *)

val to_json : t -> string
(** {!json} rendered; a non-finite gauge reads [null]. *)

val save_prometheus : t -> path:string -> unit

val save_json : t -> path:string -> unit
