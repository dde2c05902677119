module Metrics = Flb_obs.Metrics

type conn_info = {
  conn_id : int;
  peer : string;
  connected_at : float;
  mutable conn_requests : int;
  mutable last_s : float;
}

type state = Running | Stopping | Stopped

type t = {
  lsock : Unix.file_descr;
  bound_port : int;
  (* Guards [state], [conns] and [next_conn]. *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable state : state;
  conns : (int, conn_info) Hashtbl.t;
  mutable next_conn : int;
}

let now () = Unix.gettimeofday ()

let bind ~host ~port =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen lsock 64;
    let bound_port =
      match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    {
      lsock;
      bound_port;
      lock = Mutex.create ();
      cond = Condition.create ();
      state = Running;
      conns = Hashtbl.create 16;
      next_conn = 1;
    }
  with e ->
    (try Unix.close lsock with _ -> ());
    raise e

let port t = t.bound_port

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stopping t = locked t (fun () -> t.state <> Running)

let stopped t = locked t (fun () -> t.state = Stopped)

let request_stop t =
  locked t (fun () -> if t.state = Running then t.state <- Stopping)

let connections t =
  let rows =
    locked t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
  in
  List.sort (fun a b -> compare a.conn_id b.conn_id) rows

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX path -> path
  | exception _ -> "unknown"

let register t fd =
  let peer = peer_name fd in
  locked t (fun () ->
      let info =
        {
          conn_id = t.next_conn;
          peer;
          connected_at = now ();
          conn_requests = 0;
          last_s = 0.0;
        }
      in
      t.next_conn <- t.next_conn + 1;
      Hashtbl.replace t.conns info.conn_id info;
      info)

let serve_conn t ~max_frame ~requests ~errors handler fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let info = register t fd in
  let respond ~trace_id resp =
    Wire.write_frame oc (Wire.encode_response ~trace_id resp)
  in
  let bad_request message =
    Metrics.Counter.incr errors;
    respond ~trace_id:0L (Wire.Error { code = Wire.Bad_request; message })
  in
  let rec loop () =
    match Wire.read_frame ~max_frame ic with
    | Error Wire.Closed -> ()
    | Error Wire.Truncated -> bad_request "truncated frame"
    | Error (Wire.Oversized n) ->
      (* The stream cannot be resynchronized after refusing to read a
         frame body, so answer and drop the connection. *)
      bad_request
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
           max_frame)
    | Ok payload -> (
      Metrics.Counter.incr requests;
      info.conn_requests <- info.conn_requests + 1;
      info.last_s <- now ();
      match Wire.decode_request payload with
      | Error msg ->
        (* Frame boundaries are intact: report and keep serving. *)
        bad_request msg;
        loop ()
      | Ok (trace_id, req) -> if handler ~respond ~trace_id req then loop ())
  in
  (* A failed write or a raising handler ends this connection only. *)
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () -> Hashtbl.remove t.conns info.conn_id);
      (* One flush, one close: [ic] shares [fd] and is dropped unclosed
         (see [Client.close]). *)
      close_out_noerr oc)
    (fun () -> try loop () with _ -> ())

let accept_loop t ~admit ~on_tick ~on_stop ~connections serve_one () =
  let rec loop () =
    if not (stopping t) then begin
      on_tick ();
      (match Unix.select [ t.lsock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.lsock with
        | fd, _ ->
          if admit () then begin
            Metrics.Counter.incr connections;
            ignore (Thread.create serve_one fd)
          end
          else (try Unix.close fd with _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop () with _ -> ());
  (try Unix.close t.lsock with _ -> ());
  (try on_stop () with _ -> ());
  locked t (fun () ->
      t.state <- Stopped;
      Condition.broadcast t.cond)

let serve t ~max_frame ~requests ~errors ~connections ?(admit = fun () -> true)
    ?(on_tick = ignore) ?(on_stop = ignore) handler =
  ignore
    (Thread.create
       (accept_loop t ~admit ~on_tick ~on_stop ~connections
          (serve_conn t ~max_frame ~requests ~errors handler))
       ())

(* [Stopped] is the accept thread's last write, so there is nothing
   left to join. *)
let wait t =
  locked t (fun () ->
      while t.state <> Stopped do
        Condition.wait t.cond t.lock
      done)
