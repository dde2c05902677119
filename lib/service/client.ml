module Ctx = Flb_obs.Trace_context

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
  mutable last_trace_id : int64;
}

(* Bounded connect: non-blocking connect + select, then read the
   socket's error slot. Plain [Unix.connect] can block for minutes on a
   black-holed address — a router failing over cannot afford that. *)
let connect_bounded fd addr ~timeout_s =
  Unix.set_nonblock fd;
  (match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
    match Unix.select [] [ fd ] [] timeout_s with
    | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
    | _ -> (
      match Unix.getsockopt_error fd with
      | None -> ()
      | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
  Unix.clear_nonblock fd

let connect ?(host = "127.0.0.1") ?connect_timeout_s ?io_timeout_s ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    (match connect_timeout_s with
    | Some t when t > 0.0 -> connect_bounded fd addr ~timeout_s:t
    | _ -> Unix.connect fd addr);
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    (match io_timeout_s with
    | Some t when t > 0.0 ->
      (* Per-syscall receive/send deadlines: a peer that accepts the
         request but never answers surfaces as a transport error
         instead of hanging the caller forever. *)
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
       with _ -> ())
    | _ -> ());
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      closed = false;
      last_trace_id = 0L;
    }
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* [ic] and [oc] share [fd]. Closing both would close the descriptor
       twice, and the second close could hit a socket another thread
       opened in between; so flush and close it once, through [oc]. *)
    close_out_noerr t.oc
  end

let last_trace_id t = t.last_trace_id

(* Every call carries a trace id — minted here unless the caller brings
   its own — so the request is correlatable end to end even when the
   caller never looks at traces. The response header's id (the server
   echoes ours, or minted its own for us) lands in [last_trace_id]. *)
let call ?trace_id t request =
  if t.closed then Error "client already closed"
  else begin
    let id =
      match trace_id with Some id when id <> 0L -> id | _ -> Ctx.mint ()
    in
    t.last_trace_id <- id;
    match
      Wire.write_frame t.oc (Wire.encode_request ~trace_id:id request);
      Wire.read_frame t.ic
    with
    | Ok payload -> (
      match Wire.decode_response payload with
      | Ok (trace_id, resp) ->
        if trace_id <> 0L then t.last_trace_id <- trace_id;
        Ok resp
      | Error _ as e -> e)
    | Error e -> Error (Wire.read_error_to_string e)
    | exception Sys_error msg -> Error msg
    | exception Sys_blocked_io -> Error "request timed out"
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  end

let schedule ?trace_id t ~graph ~algo ~procs =
  call ?trace_id t (Wire.Schedule { graph; algo; procs })

(* A protocol-level [Error] keeps the server's message. *)
let unexpected what = function
  | Wire.Error { code; message } ->
    Error (Printf.sprintf "%s: %s" (Wire.error_code_to_string code) message)
  | Wire.Overloaded -> Error "server overloaded"
  | _ -> Error ("unexpected response to " ^ what)

(* One round trip whose answer [pick] must accept. *)
let expect what pick t request =
  match call t request with
  | Ok resp -> (
    match pick resp with Some v -> Ok v | None -> unexpected what resp)
  | Error msg -> Error msg

let get_stats t ~format =
  expect "Get_stats"
    (function Wire.Stats_text text -> Some text | _ -> None)
    t (Wire.Get_stats format)

let get_metrics t = get_stats t ~format:Wire.Stats_prometheus

let get_load t =
  expect "Get_load" (function Wire.Load l -> Some l | _ -> None) t Wire.Get_load

let ping t = expect "Ping" (function Wire.Pong -> Some () | _ -> None) t Wire.Ping

let shutdown t =
  expect "Shutdown"
    (function Wire.Shutting_down -> Some () | _ -> None)
    t Wire.Shutdown

let drain ?(backend = "") t =
  expect "Drain"
    (function Wire.Drain_ack _ -> Some () | _ -> None)
    t (Wire.Drain { backend })

let gossip t ~from ~digest =
  expect "Gossip"
    (function Wire.Gossip_ack { digest } -> Some digest | _ -> None)
    t (Wire.Gossip { from; digest })

(* --- streaming --- *)

type placed = {
  round : int;
  final : bool;
  makespan : float;
  placements : (int * int * float) array;
}

let open_stream t ~algo ~procs =
  expect "Open_stream"
    (function Wire.Stream_opened { stream } -> Some stream | _ -> None)
    t (Wire.Open_stream { algo; procs })

let placed_of what =
  expect what (function
    | Wire.Placed { stream = _; round; final; makespan; placements } ->
      Some { round; final; makespan; placements }
    | _ -> None)

let add_tasks t ~stream ~comps =
  placed_of "Add_tasks" t (Wire.Add_tasks { stream; comps })

let add_edges t ~stream ~edges =
  placed_of "Add_edges" t (Wire.Add_edges { stream; edges })

let seal_stream t ~stream = placed_of "Seal" t (Wire.Seal { stream })

let poll_stream t ~stream = placed_of "Poll_stream" t (Wire.Poll_stream { stream })
