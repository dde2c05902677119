(** One {!Wire} endpoint: the listening socket, the accept thread, one
    systhread per connection, the live connection table and the
    stop/wait lifecycle. The daemon ({!Server}) and the router serve
    through it, so the framing policy below lives in one place:

    - a frame whose payload fails to decode (foreign version byte,
      unknown tag, garbage) is answered [Bad_request] and the
      connection keeps serving, since frame boundaries are intact;
    - a truncated or oversized frame is answered [Bad_request] and the
      connection closes: after refusing to read a body the stream
      cannot be resynchronized;
    - a handler that returns [false] or raises closes only its own
      connection;
    - each socket is closed once, through its out-channel (the
      in-channel shares the descriptor and is dropped unclosed, see
      {!Client.close}).

    The accept thread wakes at least every 200 ms and runs [on_tick] on
    every wakeup, so a caller can hang periodic duties on it. *)

type t

val bind : host:string -> port:int -> t
(** Bind and listen; nothing is accepted until {!serve}. [port = 0]
    picks an ephemeral port (see {!port}).
    @raise Unix.Unix_error if the bind fails. *)

val port : t -> int
(** The actual bound port. *)

val serve :
  t ->
  max_frame:int ->
  requests:Flb_obs.Metrics.Counter.t ->
  errors:Flb_obs.Metrics.Counter.t ->
  connections:Flb_obs.Metrics.Counter.t ->
  ?admit:(unit -> bool) ->
  ?on_tick:(unit -> unit) ->
  ?on_stop:(unit -> unit) ->
  (respond:(trace_id:int64 -> Wire.response -> unit) ->
  trace_id:int64 ->
  Wire.request ->
  bool) ->
  unit
(** Start the accept thread and return. Each decoded request goes to
    the handler on its connection's thread; the handler answers through
    [respond] (any number of times) and returns whether to keep serving
    the connection. [requests] counts every complete frame read,
    [errors] every [Bad_request] the framing policy sends, and
    [connections] every admitted connection. [admit] (default: always)
    is asked once per accepted connection; a refused one is closed at
    once. [on_tick] runs on every accept-thread wakeup; if it raises,
    the listener stops. On stop the listener closes the listening
    socket, runs [on_stop], then marks itself stopped. Call once. *)

(** One row of the live connection table. [conn_requests] and [last_s]
    are written by the connection's own thread, so a reader may see
    them one request stale. *)
type conn_info = private {
  conn_id : int;  (** Ascending in accept order. *)
  peer : string;  (** ["host:port"] of the remote end. *)
  connected_at : float;  (** Wall time the connection was served. *)
  mutable conn_requests : int;  (** Frames read so far. *)
  mutable last_s : float;  (** Wall time of the last frame, 0 if none. *)
}

val connections : t -> conn_info list
(** Open connections, oldest first. *)

val stopping : t -> bool
(** [true] once {!request_stop} was called (or the listener stopped). *)

val stopped : t -> bool
(** [true] once the accept thread has finished [on_stop]. *)

val request_stop : t -> unit
(** Stop accepting. Returns at once and never blocks, so a handler may
    call it. Open connections are not interrupted. Idempotent. *)

val wait : t -> unit
(** Block until the listener has stopped. *)
