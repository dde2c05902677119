type stats_format = Stats_prometheus | Stats_json

type peer_status = Peer_up | Peer_draining | Peer_down

type gossip_entry = { backend : string; status : peer_status; epoch : int }

type gossip_digest = {
  entries : gossip_entry list;
  splits : string list;
  splits_epoch : int;
}

type request =
  | Schedule of { graph : string; algo : string; procs : int }
  | Get_stats of stats_format
  | Get_load
  | Ping
  | Shutdown
  | Open_stream of { algo : string; procs : int }
  | Add_tasks of { stream : int; comps : float array }
  | Add_edges of { stream : int; edges : (int * int * float) array }
  | Seal of { stream : int }
  | Poll_stream of { stream : int }
  | Gossip of { from : string; digest : gossip_digest }
  | Drain of { backend : string }

type error_code =
  | Bad_request
  | Invalid_graph
  | Unknown_algorithm
  | Deadline_exceeded
  | Internal
  | Unknown_stream
  | Edge_rejected

type breakdown = {
  queue_wait_s : float;
  cache_s : float;
  sched_s : float;
  exec_s : float;
}

let no_breakdown = { queue_wait_s = 0.0; cache_s = 0.0; sched_s = 0.0; exec_s = 0.0 }

type load = {
  uptime_s : float;
  pending : int;
  cache_entries : int;
  cache_hit_rate : float;
  scheduled_total : int;
  connections : int;
}

type response =
  | Scheduled of {
      schedule : string;
      makespan : float;
      speedup : float;
      nsl : float;
      cache_hit : bool;
      breakdown : breakdown;
    }
  | Stats_text of string
  | Load of load
  | Pong
  | Shutting_down
  | Overloaded
  | Error of { code : error_code; message : string }
  | Stream_opened of { stream : int }
  | Placed of {
      stream : int;
      round : int;
      final : bool;
      makespan : float;
      placements : (int * int * float) array;
    }
  | Gossip_ack of { digest : gossip_digest }
  | Drain_ack of { backend : string }

let version = 5

let default_max_frame = 16 * 1024 * 1024

let error_code_to_string = function
  | Bad_request -> "bad request"
  | Invalid_graph -> "invalid graph"
  | Unknown_algorithm -> "unknown algorithm"
  | Deadline_exceeded -> "deadline exceeded"
  | Internal -> "internal error"
  | Unknown_stream -> "unknown stream"
  | Edge_rejected -> "edge rejected"

(* --- primitive writers --- *)

let put_u8 buf n = Buffer.add_uint8 buf n

let put_i32 buf n = Buffer.add_int32_be buf (Int32.of_int n)

let put_i64 buf n = Buffer.add_int64_be buf n

let put_f64 buf x = Buffer.add_int64_be buf (Int64.bits_of_float x)

let put_string buf s =
  put_i32 buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = put_u8 buf (if b then 1 else 0)

(* --- primitive readers: a cursor over the payload string --- *)

exception Malformed of string

type cursor = { payload : string; mutable pos : int }

let need cur n what =
  if cur.pos + n > String.length cur.payload then
    raise (Malformed (Printf.sprintf "truncated payload: expected %s" what))

let get_u8 cur what =
  need cur 1 what;
  let n = Char.code cur.payload.[cur.pos] in
  cur.pos <- cur.pos + 1;
  n

let get_i32 cur what =
  need cur 4 what;
  let n = Int32.to_int (String.get_int32_be cur.payload cur.pos) in
  cur.pos <- cur.pos + 4;
  n

let get_i64 cur what =
  need cur 8 what;
  let n = String.get_int64_be cur.payload cur.pos in
  cur.pos <- cur.pos + 8;
  n

let get_f64 cur what =
  need cur 8 what;
  let x = Int64.float_of_bits (String.get_int64_be cur.payload cur.pos) in
  cur.pos <- cur.pos + 8;
  x

let get_string cur what =
  let len = get_i32 cur (what ^ " length") in
  if len < 0 then raise (Malformed (what ^ ": negative string length"));
  need cur len what;
  let s = String.sub cur.payload cur.pos len in
  cur.pos <- cur.pos + len;
  s

let get_bool cur what =
  match get_u8 cur what with
  | 0 -> false
  | 1 -> true
  | n -> raise (Malformed (Printf.sprintf "%s: bad boolean %d" what n))

(* The header: the version byte, then the 8-byte trace id. Any other
   version is refused before its layout is guessed at. *)
let put_header buf ~trace_id =
  put_u8 buf version;
  put_i64 buf trace_id

let get_header cur =
  let v = get_u8 cur "version" in
  if v <> version then
    raise (Malformed (Printf.sprintf "unsupported protocol version %d" v));
  get_i64 cur "trace id"

let decode what payload read =
  try
    let cur = { payload; pos = 0 } in
    let trace_id = get_header cur in
    let value = read cur in
    if cur.pos <> String.length payload then
      raise
        (Malformed
           (Printf.sprintf "%d trailing bytes after %s"
              (String.length payload - cur.pos)
              what));
    Result.Ok (trace_id, value)
  with Malformed msg -> Result.Error (what ^ ": " ^ msg)

(* --- requests --- *)

let stats_format_to_int = function Stats_prometheus -> 0 | Stats_json -> 1

let stats_format_of_int = function
  | 0 -> Stats_prometheus
  | 1 -> Stats_json
  | n -> raise (Malformed (Printf.sprintf "unknown stats format %d" n))

(* Counted arrays: a 4-byte element count, then the elements. The count
   is validated against the bytes actually present before any element
   is read, so a hostile count cannot drive a huge allocation. *)
let put_f64_array buf a =
  put_i32 buf (Array.length a);
  Array.iter (put_f64 buf) a

let get_f64_array cur what =
  let n = get_i32 cur (what ^ " count") in
  if n < 0 then raise (Malformed (what ^ ": negative count"));
  need cur (8 * n) what;
  Array.init n (fun _ -> get_f64 cur what)

let put_triple_array buf a =
  put_i32 buf (Array.length a);
  Array.iter
    (fun (x, y, w) ->
      put_i32 buf x;
      put_i32 buf y;
      put_f64 buf w)
    a

let get_triple_array cur what =
  let n = get_i32 cur (what ^ " count") in
  if n < 0 then raise (Malformed (what ^ ": negative count"));
  need cur (16 * n) what;
  Array.init n (fun _ ->
      let x = get_i32 cur what in
      let y = get_i32 cur what in
      let w = get_f64 cur what in
      (x, y, w))

(* Gossip digests: counted lists whose counts are validated against a
   per-element size floor before anything is allocated, same discipline
   as the counted arrays above. An entry is at least 13 bytes (string
   length word, status byte, epoch), a split key at least 4. *)
let peer_status_to_int = function
  | Peer_up -> 0
  | Peer_draining -> 1
  | Peer_down -> 2

let peer_status_of_int = function
  | 0 -> Peer_up
  | 1 -> Peer_draining
  | 2 -> Peer_down
  | n -> raise (Malformed (Printf.sprintf "unknown peer status %d" n))

let put_digest buf d =
  put_i32 buf (List.length d.entries);
  List.iter
    (fun e ->
      put_string buf e.backend;
      put_u8 buf (peer_status_to_int e.status);
      put_i64 buf (Int64.of_int e.epoch))
    d.entries;
  put_i32 buf (List.length d.splits);
  List.iter (put_string buf) d.splits;
  put_i64 buf (Int64.of_int d.splits_epoch)

let get_counted cur what ~min_bytes read =
  let n = get_i32 cur (what ^ " count") in
  if n < 0 then raise (Malformed (what ^ ": negative count"));
  need cur (min_bytes * n) what;
  List.init n (fun _ -> read cur)

let get_digest cur =
  let entries =
    get_counted cur "gossip entries" ~min_bytes:13 (fun cur ->
        let backend = get_string cur "gossip backend" in
        let status = peer_status_of_int (get_u8 cur "gossip status") in
        let epoch = Int64.to_int (get_i64 cur "gossip epoch") in
        { backend; status; epoch })
  in
  let splits =
    get_counted cur "gossip splits" ~min_bytes:4 (fun cur ->
        get_string cur "gossip split key")
  in
  let splits_epoch = Int64.to_int (get_i64 cur "splits epoch") in
  { entries; splits; splits_epoch }

let put_request buf r =
  match r with
  | Schedule { graph; algo; procs } ->
    put_u8 buf 1;
    put_string buf graph;
    put_string buf algo;
    put_i32 buf procs
  | Ping -> put_u8 buf 3
  | Shutdown -> put_u8 buf 4
  | Get_stats fmt ->
    put_u8 buf 5;
    put_u8 buf (stats_format_to_int fmt)
  | Get_load -> put_u8 buf 6
  | Open_stream { algo; procs } ->
    put_u8 buf 7;
    put_string buf algo;
    put_i32 buf procs
  | Add_tasks { stream; comps } ->
    put_u8 buf 8;
    put_i32 buf stream;
    put_f64_array buf comps
  | Add_edges { stream; edges } ->
    put_u8 buf 9;
    put_i32 buf stream;
    put_triple_array buf edges
  | Seal { stream } ->
    put_u8 buf 10;
    put_i32 buf stream
  | Poll_stream { stream } ->
    put_u8 buf 11;
    put_i32 buf stream
  | Gossip { from; digest } ->
    put_u8 buf 12;
    put_string buf from;
    put_digest buf digest
  | Drain { backend } ->
    put_u8 buf 13;
    put_string buf backend

let encode_request ?(trace_id = 0L) r =
  let buf = Buffer.create 256 in
  put_header buf ~trace_id;
  put_request buf r;
  Buffer.contents buf

let decode_request payload =
  decode "request" payload (fun cur ->
      match get_u8 cur "tag" with
      | 1 ->
        let graph = get_string cur "graph" in
        let algo = get_string cur "algo" in
        let procs = get_i32 cur "procs" in
        Schedule { graph; algo; procs }
      | 3 -> Ping
      | 4 -> Shutdown
      | 5 -> Get_stats (stats_format_of_int (get_u8 cur "stats format"))
      | 6 -> Get_load
      | 7 ->
        let algo = get_string cur "algo" in
        let procs = get_i32 cur "procs" in
        Open_stream { algo; procs }
      | 8 ->
        let stream = get_i32 cur "stream" in
        let comps = get_f64_array cur "comps" in
        Add_tasks { stream; comps }
      | 9 ->
        let stream = get_i32 cur "stream" in
        let edges = get_triple_array cur "edges" in
        Add_edges { stream; edges }
      | 10 -> Seal { stream = get_i32 cur "stream" }
      | 11 -> Poll_stream { stream = get_i32 cur "stream" }
      | 12 ->
        let from = get_string cur "gossip from" in
        let digest = get_digest cur in
        Gossip { from; digest }
      | 13 -> Drain { backend = get_string cur "drain backend" }
      | n -> raise (Malformed (Printf.sprintf "unknown request tag %d" n)))

(* --- responses --- *)

let error_code_to_int = function
  | Bad_request -> 1
  | Invalid_graph -> 2
  | Unknown_algorithm -> 3
  | Deadline_exceeded -> 4
  | Internal -> 5
  | Unknown_stream -> 6
  | Edge_rejected -> 7

let error_code_of_int = function
  | 1 -> Bad_request
  | 2 -> Invalid_graph
  | 3 -> Unknown_algorithm
  | 4 -> Deadline_exceeded
  | 5 -> Internal
  | 6 -> Unknown_stream
  | 7 -> Edge_rejected
  | n -> raise (Malformed (Printf.sprintf "unknown error code %d" n))

let put_response buf r =
  match r with
  | Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown } ->
    put_u8 buf 1;
    put_string buf schedule;
    put_f64 buf makespan;
    put_f64 buf speedup;
    put_f64 buf nsl;
    put_bool buf cache_hit;
    put_f64 buf breakdown.queue_wait_s;
    put_f64 buf breakdown.cache_s;
    put_f64 buf breakdown.sched_s;
    put_f64 buf breakdown.exec_s
  | Pong -> put_u8 buf 3
  | Shutting_down -> put_u8 buf 4
  | Overloaded -> put_u8 buf 5
  | Error { code; message } ->
    put_u8 buf 6;
    put_u8 buf (error_code_to_int code);
    put_string buf message
  | Stats_text text ->
    put_u8 buf 7;
    put_string buf text
  | Load l ->
    put_u8 buf 8;
    put_f64 buf l.uptime_s;
    put_i32 buf l.pending;
    put_i32 buf l.cache_entries;
    put_f64 buf l.cache_hit_rate;
    put_i64 buf (Int64.of_int l.scheduled_total);
    put_i32 buf l.connections
  | Stream_opened { stream } ->
    put_u8 buf 9;
    put_i32 buf stream
  | Placed { stream; round; final; makespan; placements } ->
    put_u8 buf 10;
    put_i32 buf stream;
    put_i32 buf round;
    put_bool buf final;
    put_f64 buf makespan;
    put_triple_array buf placements
  | Gossip_ack { digest } ->
    put_u8 buf 11;
    put_digest buf digest
  | Drain_ack { backend } ->
    put_u8 buf 12;
    put_string buf backend

let encode_response ?(trace_id = 0L) r =
  let buf = Buffer.create 256 in
  put_header buf ~trace_id;
  put_response buf r;
  Buffer.contents buf

let decode_response payload =
  decode "response" payload (fun cur ->
      match get_u8 cur "tag" with
      | 1 ->
        let schedule = get_string cur "schedule" in
        let makespan = get_f64 cur "makespan" in
        let speedup = get_f64 cur "speedup" in
        let nsl = get_f64 cur "nsl" in
        let cache_hit = get_bool cur "cache_hit" in
        let queue_wait_s = get_f64 cur "queue_wait_s" in
        let cache_s = get_f64 cur "cache_s" in
        let sched_s = get_f64 cur "sched_s" in
        let exec_s = get_f64 cur "exec_s" in
        let breakdown = { queue_wait_s; cache_s; sched_s; exec_s } in
        Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown }
      | 3 -> Pong
      | 4 -> Shutting_down
      | 5 -> Overloaded
      | 6 ->
        let code = error_code_of_int (get_u8 cur "error code") in
        let message = get_string cur "message" in
        Error { code; message }
      | 7 -> Stats_text (get_string cur "stats")
      | 8 ->
        let uptime_s = get_f64 cur "uptime_s" in
        let pending = get_i32 cur "pending" in
        let cache_entries = get_i32 cur "cache_entries" in
        let cache_hit_rate = get_f64 cur "cache_hit_rate" in
        let scheduled_total = Int64.to_int (get_i64 cur "scheduled_total") in
        let connections = get_i32 cur "connections" in
        Load
          {
            uptime_s;
            pending;
            cache_entries;
            cache_hit_rate;
            scheduled_total;
            connections;
          }
      | 9 -> Stream_opened { stream = get_i32 cur "stream" }
      | 10 ->
        let stream = get_i32 cur "stream" in
        let round = get_i32 cur "round" in
        let final = get_bool cur "final" in
        let makespan = get_f64 cur "makespan" in
        let placements = get_triple_array cur "placements" in
        Placed { stream; round; final; makespan; placements }
      | 11 -> Gossip_ack { digest = get_digest cur }
      | 12 -> Drain_ack { backend = get_string cur "drained backend" }
      | n -> raise (Malformed (Printf.sprintf "unknown response tag %d" n)))

(* --- framing --- *)

type read_error =
  | Closed
  | Truncated
  | Oversized of int

let read_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n

let write_frame oc payload =
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  output_bytes oc header;
  output_string oc payload;
  flush oc

let read_frame ?(max_frame = default_max_frame) ic =
  (* Header bytes come one at a time so EOF before any byte ([Closed],
     the peer hung up between frames) is distinguishable from EOF
     mid-frame ([Truncated]). *)
  match input_char ic with
  | exception End_of_file -> Result.Error Closed
  | first -> (
    try
      let b = Bytes.create 4 in
      Bytes.set b 0 first;
      for i = 1 to 3 do
        Bytes.set b i (input_char ic)
      done;
      let len = Int32.to_int (Bytes.get_int32_be b 0) in
      if len < 0 || len > max_frame then Result.Error (Oversized len)
      else begin
        let payload = Bytes.create len in
        really_input ic payload 0 len;
        Result.Ok (Bytes.unsafe_to_string payload)
      end
    with End_of_file -> Result.Error Truncated)
