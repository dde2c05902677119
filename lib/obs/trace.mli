(** Span/event tracer for the scheduler's {e own} execution.

    Where {!Flb_platform.Chrome_trace} renders a finished schedule (the
    simulated program), this tracer records what the scheduler or
    simulator {e did} while running — nestable spans, instant events and
    counter samples on named tracks — and emits them either as JSONL or
    as Chrome trace-event JSON (the same emission idiom as
    [Chrome_trace]), so a profiling run opens directly in Perfetto with
    one row per track.

    A disabled tracer ({!null}) is free: every recording entry point
    checks a flag and returns without allocating, so instrumented hot
    loops pay nothing when tracing is off. *)

type t

val null : t
(** The disabled tracer: records nothing, costs nothing. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A live tracer. [clock] returns absolute seconds (defaults to
    [Unix.gettimeofday]); timestamps are stored relative to the clock
    value at creation. Inject a fake clock for deterministic output. *)

val enabled : t -> bool

val now : t -> float
(** Seconds since the tracer's epoch (0 on a disabled tracer). *)

val num_events : t -> int

val add_span :
  ?args:(string * float) list ->
  t ->
  track:string ->
  name:string ->
  ts:float ->
  dur:float ->
  unit
(** Record a completed span with explicit start and duration (both in
    seconds on the tracer's timeline). The low-level entry point used by
    instrumentation that measures durations itself. *)

val instant : ?args:(string * float) list -> ?ts:float -> t -> track:string -> string -> unit
(** Record a point event; [ts] defaults to {!now}. *)

val counter : ?ts:float -> t -> track:string -> name:string -> float -> unit
(** Record a counter sample (rendered as a counter track in Perfetto). *)

val with_span : ?args:(string * float) list -> t -> track:string -> string -> (unit -> 'a) -> 'a
(** [with_span t ~track name f] runs [f] inside a span, recording it even
    if [f] raises. On a disabled tracer this is exactly [f ()]. *)

val to_chrome_json : ?name:string -> t -> string
(** Chrome trace-event JSON ([{"traceEvents": [...]}]): one thread (row)
    per track in order of first appearance, spans as ["X"] events,
    instants as ["i"], counters as ["C"]; timestamps in microseconds. *)

val to_jsonl : ?meta:(string * string) list -> t -> string
(** The JSONL trace schema, one JSON object per line: a
    [{"type":"meta",...}] line of [meta]'s string fields when [meta] is
    non-empty, then one line per event in recording order — its type
    (["span"], ["instant"] or ["counter"]), track, name and ts, then a
    span's dur or a counter's value, then its args. Numbers read back
    bit-identical (a non-finite one is [null]), so the flight recorder,
    the virtual-clock rendering and [flb analyze] share this one
    writer and its reader exactly. *)

val save_chrome : ?name:string -> t -> path:string -> unit

val save_jsonl : t -> path:string -> unit
