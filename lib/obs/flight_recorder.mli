(** The event log of a real engine run: one fixed-size ring of events
    per domain.

    Each domain owns a ring of [capacity] slots backed by preallocated
    int/float arrays: recording takes no lock, never grows a ring, and
    overwrites that domain's oldest entry once full. The engines size
    the rings to the run, so a run's log never wraps. {!dump} replays
    the rings into a {!Trace.t} and writes it in the JSONL line schema
    [flb analyze] reads, or as Chrome trace-event JSON.

    Writes are strictly domain-local ([record] on domain [d] touches
    only ring [d]); a dump taken while other domains still run is a
    best-effort snapshot (the newest entry of a racing ring may be
    torn), which is exactly what a fault post-mortem needs. *)

type kind =
  | Task  (** a span: [a] = task id, [dur] = execution time *)
  | Steal  (** [a] = task, [b] = victim domain *)
  | Recover  (** [a] = task, [b] = victim domain (or -1) *)
  | Stall  (** [b] = stall horizon (weight units) *)
  | Killed
  | Resched  (** [a] = frontier size, [b] = latency in ns *)

type t

val create : capacity:int -> domains:int -> t
(** All rings preallocated. @raise Invalid_argument if [capacity < 1]
    or [domains < 1]. *)

val capacity : t -> int

val domains : t -> int

val record : t -> domain:int -> kind -> ts:float -> dur:float -> a:int -> b:float -> unit
(** Append to [domain]'s ring, overwriting its oldest entry when full.
    Call only from the owning domain. The only allocation is the boxing
    of the float arguments at the call, 2 words for each that is not a
    constant. *)

val recorded : t -> domain:int -> int
(** Events ever recorded by the domain (including overwritten ones). *)

val stored : t -> domain:int -> int
(** Events currently held: [min (recorded) capacity]. *)

val iter :
  t ->
  (domain:int -> kind -> ts:float -> dur:float -> a:int -> b:float -> unit) ->
  unit
(** Oldest to newest within each domain, domains in index order. *)

val to_jsonl : ?meta:(string * string) list -> t -> string
(** The rings replayed into a {!Trace.t} in {!iter} order and written by
    {!Trace.to_jsonl}: task spans named ["task <id>"] on track ["D<i>"],
    the other kinds as instants named [steal], [recover], [stall],
    [killed] and [resched], with args [task] and [victim] (a steal or
    recover; no victim when [b < 0]), [until] (a stall), or [frontier]
    and [latency_ns] (a resched). One [{"type":"meta",...}] line leads
    when [meta] is non-empty. *)

val dump : ?meta:(string * string) list -> ?name:string -> t -> path:string -> unit
(** Write the rings to [path]: {!to_jsonl} with [meta] for a [.jsonl]
    path, otherwise the same replay as Chrome trace-event JSON with
    process name [name] ({!Trace.save_chrome}). *)
