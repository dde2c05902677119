(** Request-scoped trace context.

    A context pairs a 64-bit trace id with a {!Trace.t}. The id is
    minted once at the request's origin (the service client), travels in
    the wire header, and names one trace track per request
    (["req-<16 hex digits>"]), so queue-wait, cache, scheduling and
    execution spans of a single request form one correlated row in
    Perfetto regardless of which thread or domain emitted them. *)

type t

val mint : unit -> int64
(** A fresh non-zero id: wall clock, pid and a process-local counter
    folded through the SplitMix64 finalizer. Zero is reserved for "no
    id": a wire header whose trace id was left unset. *)

val create : ?id:int64 -> Trace.t -> t
(** [create ?id tracer]. An absent or zero [id] mints a fresh one, so a
    request arriving without a trace id still gets a correlated track. *)

val id : t -> int64

val tracer : t -> Trace.t

val id_to_string : int64 -> string
(** 16 lowercase hex digits, zero-padded. *)

val id_of_string : string -> int64 option
(** Inverse of {!id_to_string}; [None] on anything else. *)

val track : t -> string
(** The context's track name: ["req-" ^ id_to_string id]. *)

val with_span : ?args:(string * float) list -> t -> string -> (unit -> 'a) -> 'a

val add_span : ?args:(string * float) list -> t -> string -> ts:float -> dur:float -> unit

val instant : ?args:(string * float) list -> t -> string -> unit
