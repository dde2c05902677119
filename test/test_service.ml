(* The scheduling service: wire codecs, LRU cache, domain pool, and the
   TCP server's happy path, failure injection and admission control. *)

open! Flb_taskgraph
open! Flb_platform
open Testutil
module Wire = Flb_service.Wire
module Cache = Flb_service.Cache
module Pool = Flb_service.Pool
module Server = Flb_service.Server
module Client = Flb_service.Client
module Listener = Flb_service.Listener
module Json = Flb_prelude.Json

(* --- wire codec round trips (qcheck) --- *)

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (8, float);
        (1, oneofl [ 0.0; -0.0; 1e-300; 1e300; infinity; neg_infinity; nan ]);
      ])

let gen_peer_status =
  QCheck.Gen.oneofl [ Wire.Peer_up; Wire.Peer_draining; Wire.Peer_down ]

let gen_digest =
  QCheck.Gen.(
    map3
      (fun entries splits splits_epoch -> { Wire.entries; splits; splits_epoch })
      (list_size (int_range 0 8)
         (map3
            (fun backend status epoch -> { Wire.backend; status; epoch })
            gen_bytes gen_peer_status (int_range 0 1000)))
      (list_size (int_range 0 8) gen_bytes)
      (int_range 0 1000))

let gen_request =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun graph algo procs -> Wire.Schedule { graph; algo; procs })
            gen_bytes gen_bytes (int_range 0 1000) );
        (1, return (Wire.Get_stats Wire.Stats_prometheus));
        (1, return (Wire.Get_stats Wire.Stats_json));
        (1, return Wire.Get_load);
        (1, return Wire.Ping);
        (1, return Wire.Shutdown);
        ( 2,
          map2
            (fun algo procs -> Wire.Open_stream { algo; procs })
            gen_bytes (int_range 0 1000) );
        ( 2,
          map2
            (fun stream comps -> Wire.Add_tasks { stream; comps = Array.of_list comps })
            (int_range 0 10000)
            (list_size (int_range 0 30) gen_float) );
        ( 2,
          map2
            (fun stream edges -> Wire.Add_edges { stream; edges = Array.of_list edges })
            (int_range 0 10000)
            (list_size (int_range 0 30)
               (triple (int_range 0 1000) (int_range 0 1000) gen_float)) );
        (1, map (fun stream -> Wire.Seal { stream }) (int_range 0 10000));
        (1, map (fun stream -> Wire.Poll_stream { stream }) (int_range 0 10000));
        ( 2,
          map2 (fun from digest -> Wire.Gossip { from; digest }) gen_bytes gen_digest );
        (1, map (fun backend -> Wire.Drain { backend }) gen_bytes);
      ])

let gen_breakdown =
  QCheck.Gen.(
    map
      (fun (queue_wait_s, cache_s, sched_s, exec_s) ->
        { Wire.queue_wait_s; cache_s; sched_s; exec_s })
      (quad gen_float gen_float gen_float gen_float))

let gen_response =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun schedule (makespan, speedup) ((nsl, cache_hit), breakdown) ->
              Wire.Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown })
            gen_bytes (pair gen_float gen_float)
            (pair (pair gen_float bool) gen_breakdown) );
        (2, map (fun s -> Wire.Stats_text s) gen_bytes);
        ( 2,
          map
            (fun ((uptime_s, cache_hit_rate), (pending, cache_entries),
                  (scheduled_total, connections)) ->
              Wire.Load
                {
                  Wire.uptime_s;
                  pending;
                  cache_entries;
                  cache_hit_rate;
                  scheduled_total;
                  connections;
                })
            (triple (pair gen_float gen_float)
               (pair (int_range 0 10000) (int_range 0 10000))
               (pair (int_range 0 1000000) (int_range 0 10000))) );
        (1, return Wire.Pong);
        (1, return Wire.Shutting_down);
        (1, return Wire.Overloaded);
        ( 2,
          map2
            (fun code message -> Wire.Error { code; message })
            (oneofl
               [
                 Wire.Bad_request;
                 Wire.Invalid_graph;
                 Wire.Unknown_algorithm;
                 Wire.Deadline_exceeded;
                 Wire.Internal;
                 Wire.Unknown_stream;
                 Wire.Edge_rejected;
               ])
            gen_bytes );
        (1, map (fun stream -> Wire.Stream_opened { stream }) (int_range 0 10000));
        ( 2,
          map
            (fun ((stream, round), ((final, makespan), placements)) ->
              Wire.Placed
                { stream; round; final; makespan; placements = Array.of_list placements })
            (pair
               (pair (int_range 0 10000) (int_range 0 1000))
               (pair (pair bool gen_float)
                  (list_size (int_range 0 30)
                     (triple (int_range 0 1000) (int_range 0 1000) gen_float)))) );
        (2, map (fun digest -> Wire.Gossip_ack { digest }) gen_digest);
        (1, map (fun backend -> Wire.Drain_ack { backend }) gen_bytes);
      ])

let show_request = function
  | Wire.Schedule { graph; algo; procs } ->
    Printf.sprintf "Schedule{graph=%S; algo=%S; procs=%d}" graph algo procs
  | Wire.Get_stats Wire.Stats_prometheus -> "Get_stats prometheus"
  | Wire.Get_stats Wire.Stats_json -> "Get_stats json"
  | Wire.Get_load -> "Get_load"
  | Wire.Ping -> "Ping"
  | Wire.Shutdown -> "Shutdown"
  | Wire.Open_stream { algo; procs } ->
    Printf.sprintf "Open_stream{algo=%S; procs=%d}" algo procs
  | Wire.Add_tasks { stream; comps } ->
    Printf.sprintf "Add_tasks{stream=%d; n=%d}" stream (Array.length comps)
  | Wire.Add_edges { stream; edges } ->
    Printf.sprintf "Add_edges{stream=%d; n=%d}" stream (Array.length edges)
  | Wire.Seal { stream } -> Printf.sprintf "Seal{stream=%d}" stream
  | Wire.Poll_stream { stream } -> Printf.sprintf "Poll_stream{stream=%d}" stream
  | Wire.Gossip { from; digest } ->
    Printf.sprintf "Gossip{from=%S; entries=%d; splits=%d; epoch=%d}" from
      (List.length digest.Wire.entries)
      (List.length digest.Wire.splits)
      digest.Wire.splits_epoch
  | Wire.Drain { backend } -> Printf.sprintf "Drain{backend=%S}" backend

let show_response = function
  | Wire.Scheduled { schedule; makespan; speedup; nsl; cache_hit; breakdown = b } ->
    Printf.sprintf
      "Scheduled{schedule=%S; makespan=%h; speedup=%h; nsl=%h; hit=%b; \
       qw=%h cache=%h sched=%h exec=%h}"
      schedule makespan speedup nsl cache_hit b.Wire.queue_wait_s b.Wire.cache_s
      b.Wire.sched_s b.Wire.exec_s
  | Wire.Stats_text s -> Printf.sprintf "Stats_text %S" s
  | Wire.Load l ->
    Printf.sprintf "Load{up=%h; pend=%d; entries=%d; hit=%h; sched=%d; conns=%d}"
      l.Wire.uptime_s l.Wire.pending l.Wire.cache_entries l.Wire.cache_hit_rate
      l.Wire.scheduled_total l.Wire.connections
  | Wire.Pong -> "Pong"
  | Wire.Shutting_down -> "Shutting_down"
  | Wire.Overloaded -> "Overloaded"
  | Wire.Error { code; message } ->
    Printf.sprintf "Error{%s; %S}" (Wire.error_code_to_string code) message
  | Wire.Stream_opened { stream } -> Printf.sprintf "Stream_opened{stream=%d}" stream
  | Wire.Placed { stream; round; final; makespan; placements } ->
    Printf.sprintf "Placed{stream=%d; round=%d; final=%b; makespan=%h; n=%d}" stream
      round final makespan (Array.length placements)
  | Wire.Gossip_ack { digest } ->
    Printf.sprintf "Gossip_ack{entries=%d; splits=%d; epoch=%d}"
      (List.length digest.Wire.entries)
      (List.length digest.Wire.splits)
      digest.Wire.splits_epoch
  | Wire.Drain_ack { backend } -> Printf.sprintf "Drain_ack{backend=%S}" backend

let gen_trace_id =
  QCheck.Gen.(
    map2
      (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
      (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))

(* The payload header as wire.mli lays it out: the version byte, then
   the 8-byte big-endian trace id. *)
let wire_header ?(trace_id = 0L) () =
  let b = Bytes.create 9 in
  Bytes.set_uint8 b 0 Wire.version;
  Bytes.set_int64_be b 1 trace_id;
  Bytes.to_string b

(* Inputs for the never-raises property. Uniform bytes pass the version
   check one time in 256, so two more kinds reach the tag decoders: a
   valid header with a random tag and body, and real encodings cut short
   or with one byte changed. *)
let gen_hostile_payload =
  QCheck.Gen.(
    let framed =
      map3
        (fun trace_id tag body ->
          wire_header ~trace_id () ^ String.make 1 (Char.chr tag) ^ body)
        gen_trace_id (int_range 0 15) gen_bytes
    in
    let damaged =
      oneof
        [
          map2 (fun trace_id r -> Wire.encode_request ~trace_id r) gen_trace_id gen_request;
          map2 (fun trace_id r -> Wire.encode_response ~trace_id r) gen_trace_id gen_response;
        ]
      >>= fun s ->
      let n = String.length s in
      oneof
        [
          map (fun k -> String.sub s 0 k) (int_range 0 (n - 1));
          map2
            (fun i x ->
              let b = Bytes.of_string s in
              Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor x);
              Bytes.to_string b)
            (int_range 0 (n - 1)) (int_range 1 255);
        ]
    in
    oneof [ gen_bytes; framed; damaged ])

(* Structural compare instead of (=): it treats nan as equal to itself,
   and the codec stores float bit patterns so nan round-trips. *)
let qsuite_wire =
  [
    qtest ~count:300 "request decode ∘ encode = id, header echoed"
      (QCheck.make
         ~print:(fun (id, r) -> Printf.sprintf "id=%Lx %s" id (show_request r))
         QCheck.Gen.(pair gen_trace_id gen_request))
      (fun (trace_id, r) ->
        match Wire.decode_request (Wire.encode_request ~trace_id r) with
        | Ok (id, r') -> id = trace_id && compare r r' = 0
        | Error _ -> false);
    qtest ~count:300 "response decode ∘ encode = id, header echoed"
      (QCheck.make
         ~print:(fun (id, r) -> Printf.sprintf "id=%Lx %s" id (show_response r))
         QCheck.Gen.(pair gen_trace_id gen_response))
      (fun (trace_id, r) ->
        match Wire.decode_response (Wire.encode_response ~trace_id r) with
        | Ok (id, r') -> id = trace_id && compare r r' = 0
        | Error _ -> false);
    qtest ~count:1000 "decoding arbitrary bytes never raises"
      (QCheck.make ~print:(Printf.sprintf "%S") gen_hostile_payload) (fun s ->
        (match Wire.decode_request s with Ok _ | Error _ -> true)
        && (match Wire.decode_response s with Ok _ | Error _ -> true));
  ]

let test_wire_malformed () =
  (* [error], when given, is the exact message: it shows which check
     refused the payload. *)
  let reject ?error what payload =
    match (Wire.decode_request payload, error) with
    | Error msg, Some e -> Alcotest.(check string) what e msg
    | Error _, None -> ()
    | Ok _, _ -> Alcotest.failf "accepted %s" what
  in
  let header = wire_header () in
  reject "empty payload" "";
  (* every version byte but the current one is refused, whatever the
     rest of the payload says *)
  let ping = Wire.encode_request Wire.Ping in
  for v = 0 to 255 do
    if v <> Wire.version then
      reject
        (Printf.sprintf "version %d" v)
        ~error:(Printf.sprintf "request: unsupported protocol version %d" v)
        (String.make 1 (Char.chr v) ^ String.sub ping 1 (String.length ping - 1))
  done;
  reject "unknown tag" ~error:"request: unknown request tag 153" (header ^ "\x99");
  (* tag 2 is retired: Get_stats is the one metrics message, so tag 2 is
     unknown in both directions *)
  reject "retired request tag 2" ~error:"request: unknown request tag 2" (header ^ "\x02");
  (match Wire.decode_response (header ^ "\x02\x00\x00\x00\x00") with
  | Error msg ->
    Alcotest.(check string) "retired response tag 2" "response: unknown response tag 2" msg
  | Ok _ -> Alcotest.fail "accepted retired response tag 2");
  reject "truncated Schedule" ~error:"request: truncated payload: expected graph"
    (header ^ "\x01\x00\x00\x00\x05ab");
  (* a payload that ends inside the 8-byte trace id *)
  reject "truncated header" ~error:"request: truncated payload: expected trace id"
    (String.sub header 0 5);
  (* a valid Ping with trailing garbage must not decode *)
  reject "trailing bytes" (ping ^ "x");
  (* a gossip entry count that promises more bytes than the frame
     carries is rejected before any allocation *)
  reject "gossip entry count exceeding the frame"
    ~error:"request: truncated payload: expected gossip entries"
    (header ^ "\x0c\x00\x00\x00\x00\x7f\xff\xff\xff");
  (let full =
     Wire.encode_request
       (Wire.Gossip
          {
            from = "r1";
            digest =
              {
                Wire.entries =
                  [ { Wire.backend = "b1"; status = Wire.Peer_down; epoch = 3 } ];
                splits = [ "shard" ];
                splits_epoch = 2;
              };
          })
   in
   reject "truncated Gossip digest" (String.sub full 0 (String.length full - 4)));
  (* counted arrays whose element count promises more bytes than the
     frame carries are rejected before any allocation *)
  (let full =
     Wire.encode_request (Wire.Add_tasks { stream = 1; comps = [| 1.0; 2.0; 3.0 |] })
   in
   reject "truncated Add_tasks array" (String.sub full 0 (String.length full - 4)));
  (let full =
     Wire.encode_request (Wire.Add_edges { stream = 1; edges = [| (0, 1, 2.0) |] })
   in
   reject "truncated Add_edges array" (String.sub full 0 (String.length full - 4)))

let test_wire_framing () =
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd in
  let oc = Unix.out_channel_of_descr wr in
  Wire.write_frame oc "hello";
  Wire.write_frame oc "";
  (match Wire.read_frame ic with
  | Ok p -> Alcotest.(check string) "first frame" "hello" p
  | Error e -> Alcotest.fail (Wire.read_error_to_string e));
  (match Wire.read_frame ic with
  | Ok p -> Alcotest.(check string) "empty frame" "" p
  | Error e -> Alcotest.fail (Wire.read_error_to_string e));
  (* oversized: declared length above the cap is refused before reading *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 1024l;
  output_bytes oc header;
  flush oc;
  (match Wire.read_frame ~max_frame:100 ic with
  | Error (Wire.Oversized 1024) -> ()
  | Error e -> Alcotest.fail (Wire.read_error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* truncated: header promises 50 bytes, the peer hangs up after 3 *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 50l;
  output_bytes oc header;
  output_string oc "abc";
  close_out oc;
  (match Wire.read_frame ic with
  | Error Wire.Truncated -> ()
  | Error e -> Alcotest.fail (Wire.read_error_to_string e)
  | Ok _ -> Alcotest.fail "truncated frame accepted");
  (* a fresh EOF at a frame boundary is Closed, not Truncated *)
  let rd2, wr2 = Unix.pipe () in
  Unix.close wr2;
  let ic2 = Unix.in_channel_of_descr rd2 in
  (match Wire.read_frame ic2 with
  | Error Wire.Closed -> ()
  | Error e -> Alcotest.fail (Wire.read_error_to_string e)
  | Ok _ -> Alcotest.fail "read from closed pipe succeeded");
  close_in_noerr ic2;
  close_in_noerr ic

(* --- cache --- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:1 () in
  Alcotest.(check (option string)) "empty miss" None (Cache.find c "k1");
  Cache.add c "k1" "v1";
  Alcotest.(check (option string)) "hit" (Some "v1") (Cache.find c "k1");
  (* capacity-1 stress: each insert evicts the previous entry *)
  Cache.add c "k2" "v2";
  Alcotest.(check (option string)) "k1 evicted" None (Cache.find c "k1");
  Alcotest.(check (option string)) "k2 present" (Some "v2") (Cache.find c "k2");
  Cache.add c "k3" "v3";
  Alcotest.(check (option string)) "k2 evicted" None (Cache.find c "k2");
  Alcotest.(check (option string)) "k3 present" (Some "v3") (Cache.find c "k3");
  check_int "length bounded" 1 (Cache.length c);
  check_int "evictions" 2 (Cache.evictions c);
  check_int "hits" 3 (Cache.hits c);
  check_int "misses" 3 (Cache.misses c);
  check_raises_invalid "capacity 0" (fun () -> ignore (Cache.create ~capacity:0 ()))

let test_cache_access_order () =
  (* eviction follows access recency, not insertion order *)
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  ignore (Cache.find c "a");
  (* recency now a > b, so inserting c evicts b *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c")

let test_cache_key () =
  let g = Serial.to_string (small_graph ()) in
  Alcotest.(check string)
    "algo case-folded"
    (Cache.key ~dead:[] ~graph:g ~algo:"flb" ~procs:4)
    (Cache.key ~dead:[] ~graph:g ~algo:"FLB" ~procs:4);
  check_bool "procs distinguishes" false
    (Cache.key ~dead:[] ~graph:g ~algo:"flb" ~procs:4
    = Cache.key ~dead:[] ~graph:g ~algo:"flb" ~procs:8);
  check_bool "graph distinguishes" false
    (Cache.key ~dead:[] ~graph:g ~algo:"flb" ~procs:4
    = Cache.key ~dead:[] ~graph:(g ^ "# x\n") ~algo:"flb" ~procs:4)

let test_cache_key_mask () =
  let g = Serial.to_string (small_graph ()) in
  let k dead = Cache.key ~dead ~graph:g ~algo:"flb" ~procs:4 in
  check_bool "mask distinguishes from healthy" false (k [] = k [ 2 ]);
  check_bool "distinct masks distinguish" false (k [ 1 ] = k [ 2 ]);
  Alcotest.(check string) "mask is canonical (order)" (k [ 1; 3 ]) (k [ 3; 1 ]);
  Alcotest.(check string) "mask is canonical (dups)" (k [ 2 ]) (k [ 2; 2 ]);
  (* The property the key exists for: a degraded-machine reschedule
     must miss on a cache warmed with the full-machine entry. *)
  let c = Cache.create ~capacity:4 () in
  Cache.add c (k []) 1;
  Alcotest.(check (option int)) "degraded mask misses" None (Cache.find c (k [ 2 ]));
  Alcotest.(check (option int)) "healthy still hits" (Some 1) (Cache.find c (k []))

let test_cache_digest () =
  (* Two fresh constructions of the same graph digest identically: the
     digest hashes the canonical Serial text, not physical structure, so
     a router and a restarted router agree on every shard. *)
  Alcotest.(check string)
    "fig1 digest is construction-independent"
    (Cache.digest (Example.fig1 ()))
    (Cache.digest (Example.fig1 ()));
  Alcotest.(check string)
    "digest survives a serialize/parse round trip"
    (Cache.digest (Example.fig1 ()))
    (Cache.digest (Serial.of_string (Serial.to_string (Example.fig1 ()))));
  check_bool "distinct graphs digest differently" false
    (Cache.digest (Example.fig1 ()) = Cache.digest (small_graph ()));
  (* and the digest is exactly the one the cache key uses for canonical
     graph text, so router shards and backend cache entries coincide *)
  let g = small_graph () in
  Alcotest.(check string)
    "key_of_digest matches key on canonical text"
    (Cache.key ~dead:[] ~graph:(Serial.to_string g) ~algo:"FLB" ~procs:4)
    (Cache.key_of_digest ~dead:[] ~digest:(Cache.digest g) ~algo:"FLB" ~procs:4)

(* --- pool --- *)

let test_pool_rejects_and_drains () =
  let pool = Pool.create ~domains:1 ~queue_capacity:2 () in
  let ran = Atomic.make 0 in
  let gate = Atomic.make false in
  let job () =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    Atomic.incr ran
  in
  (* first job occupies the worker (it spins on the gate), leaving the
     queue free for exactly queue_capacity more *)
  check_bool "j1 accepted" true (Pool.submit pool job);
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Pool.pending pool > 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  check_bool "j2 accepted" true (Pool.submit pool job);
  check_bool "j3 accepted" true (Pool.submit pool job);
  check_bool "j4 rejected (queue full)" false (Pool.submit pool job);
  Atomic.set gate true;
  Pool.shutdown pool;
  check_int "all accepted jobs ran before shutdown returned" 3 (Atomic.get ran);
  check_bool "submit after shutdown rejected" false (Pool.submit pool job)

let test_pool_contains_exceptions () =
  let pool = Pool.create ~domains:2 ~queue_capacity:8 () in
  let ran = Atomic.make 0 in
  for _ = 1 to 4 do
    ignore (Pool.submit pool (fun () -> failwith "job blew up"))
  done;
  for _ = 1 to 4 do
    ignore (Pool.submit pool (fun () -> Atomic.incr ran))
  done;
  Pool.shutdown pool;
  check_int "workers survive raising jobs" 4 (Atomic.get ran)

(* --- server helpers --- *)

let with_server ?(config = Server.default_config) f =
  let srv = Server.start { config with host = "127.0.0.1"; port = 0 } in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (Server.port srv))

let with_client port f =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* A bare socket for bytes [Client] would never send: [oc] takes frames
   or raw bytes, [answer ()] reads one response frame. *)
let with_raw_conn port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let answer () =
    match Wire.read_frame ic with
    | Ok payload -> Result.map snd (Wire.decode_response payload)
    | Error e -> Error (Wire.read_error_to_string e)
  in
  (* [ic] and [oc] share [fd]: close it once. A second close could hit
     a socket the in-process server accepted in between. *)
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f ~fd ~oc ~answer)

let fig1_text () = Serial.to_string (Example.fig1 ())

(* --- server: happy path and cache semantics --- *)

let test_server_end_to_end () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          Alcotest.(check (result unit string)) "ping" (Ok ()) (Client.ping c);
          let graph = fig1_text () in
          match Client.schedule c ~graph ~algo:"FLB" ~procs:2 with
          | Ok (Wire.Scheduled r) ->
            check_float "fig1 makespan" Example.fig1_schedule_length r.makespan;
            check_bool "first run is a miss" false r.cache_hit;
            let b = r.breakdown in
            check_bool "breakdown sane" true
              (b.Wire.queue_wait_s >= 0.0
              && b.Wire.cache_s >= 0.0
              && b.Wire.sched_s >= 0.0
              && b.Wire.exec_s >= b.Wire.sched_s);
            (* the returned schedule text reloads and validates *)
            let g = Example.fig1 () in
            let m = Machine.clique ~num_procs:2 in
            let s = Schedule_io.of_string g m r.schedule in
            check_bool "schedule validates" true (Schedule.validate s = Ok ());
            check_float "makespan consistent" r.makespan (Schedule.makespan s)
          | Ok resp -> Alcotest.failf "unexpected response: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg))

let test_server_cache_hit_byte_identical () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          let graph = Serial.to_string (small_graph ()) in
          let run () =
            match Client.schedule c ~graph ~algo:"FLB" ~procs:3 with
            | Ok (Wire.Scheduled { schedule; makespan; cache_hit; breakdown; _ }) ->
              (schedule, makespan, cache_hit, breakdown)
            | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
            | Error msg -> Alcotest.fail msg
          in
          let schedule1, makespan1, hit1, _ = run () in
          let schedule2, makespan2, hit2, b2 = run () in
          check_bool "first is a miss" false hit1;
          check_bool "second is a hit" true hit2;
          (* a hit bypasses the pool: no queue wait, no compute *)
          check_float "hit queue wait" 0.0 b2.Wire.queue_wait_s;
          check_float "hit sched time" 0.0 b2.Wire.sched_s;
          check_float "hit exec time" 0.0 b2.Wire.exec_s;
          Alcotest.(check string)
            "hit is byte-identical to the fresh run" schedule1 schedule2;
          (* and byte-identical to scheduling locally *)
          (match Flb_experiments.Registry.find "FLB" with
          | None -> Alcotest.fail "FLB not registered"
          | Some a ->
            let local =
              Schedule_io.to_string
                (a.Flb_experiments.Registry.run (small_graph ())
                   (Machine.clique ~num_procs:3))
            in
            Alcotest.(check string) "matches a local run" local schedule1);
          check_float "same makespan" makespan1 makespan2))

(* --- server: introspection and trace ids --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_server_stats () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          (match Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2 with
          | Ok (Wire.Scheduled _) -> ()
          | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg);
          (match Client.get_stats c ~format:Wire.Stats_json with
          | Ok s ->
            List.iter
              (fun key ->
                check_bool (Printf.sprintf "json stats carry %s" key) true
                  (contains s (Printf.sprintf "%S" key)))
              [ "uptime_s"; "cache"; "hit_rate"; "pool"; "connections"; "metrics" ]
          | Error msg -> Alcotest.fail msg);
          match Client.get_stats c ~format:Wire.Stats_prometheus with
          | Ok s ->
            List.iter
              (fun metric ->
                check_bool (Printf.sprintf "exposition carries %s" metric) true
                  (contains s metric))
              [
                "service_uptime_seconds";
                "service_cache_hit_rate";
                "service_pool_pending";
                "service_connections_active";
                "service_requests_total";
              ]
          | Error msg -> Alcotest.fail msg))

(* The stats --json schema is a contract (CI greps it, perfbench reads
   the pool's "domains"): every key path of the answer after one
   scheduled request, values aside. *)
let test_server_stats_schema () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          (match Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2 with
          | Ok (Wire.Scheduled _) -> ()
          | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg);
          match Client.get_stats c ~format:Wire.Stats_json with
          | Error msg -> Alcotest.fail msg
          | Ok text -> (
            match Json.of_string text with
            | Error msg -> Alcotest.failf "stats is not JSON: %s" msg
            | Ok json ->
              let metrics =
                [
                  "cache_evictions_total"; "cache_hits_total";
                  "cache_misses_total"; "service_cache_entries"; "service_cache_hit_rate";
                  "service_connections_active"; "service_connections_total";
                  "service_errors_total"; "service_graph_parses_total";
                  "service_overloaded_total"; "service_pool_pending"; "service_queue_depth";
                  "service_requests_total"; "service_scheduled_total";
                  "service_uptime_seconds"; "stream_active"; "stream_batch_streams";
                  "stream_evicted_total"; "stream_frontier_size"; "stream_open_total";
                  "stream_placed_total"; "stream_rounds_total";
                ]
                @ List.concat_map histogram_keys
                    [
                      "service_cache_seconds"; "service_exec_seconds";
                      "service_queue_wait_seconds"; "service_request_seconds";
                      "service_sched_seconds";
                    ]
              in
              let golden =
                List.concat
                  [
                    [ "state"; "uptime_s" ];
                    key_section "cache"
                      [ "entries"; "capacity"; "hits"; "misses"; "evictions"; "hit_rate" ];
                    key_section "pool" [ "domains"; "pending"; "queue_capacity" ];
                    key_section "streams" [ "active"; "rounds" ];
                    "connections"
                    :: key_fields "connections[]" [ "id"; "peer"; "age_s"; "requests"; "idle_s" ];
                    key_section "metrics" metrics;
                  ]
              in
              Alcotest.(check (list string))
                "key paths" (List.sort compare golden) (json_key_paths json))))

let test_server_get_load () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          (match Client.get_load c with
          | Ok l ->
            check_int "nothing scheduled yet" 0 l.Wire.scheduled_total;
            check_int "nothing cached yet" 0 l.Wire.cache_entries;
            check_bool "uptime sane" true (l.Wire.uptime_s >= 0.0);
            check_bool "this connection is counted" true (l.Wire.connections >= 1)
          | Error msg -> Alcotest.fail msg);
          (match Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2 with
          | Ok (Wire.Scheduled _) -> ()
          | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg);
          match Client.get_load c with
          | Ok l ->
            check_int "schedule counted" 1 l.Wire.scheduled_total;
            check_int "result cached" 1 l.Wire.cache_entries
          | Error msg -> Alcotest.fail msg))

(* The prometheus sample of [name] in an exposition. *)
let sample text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

let test_server_metrics_live () =
  (* The metrics exposition refreshes the snapshot gauges first: a fresh
     daemon counts the asking connection and a running clock. *)
  with_server (fun _srv port ->
      with_client port (fun c ->
          match Client.get_metrics c with
          | Ok text ->
            Alcotest.(check (option (float 0.0)))
              "service_connections_active" (Some 1.0)
              (sample text "service_connections_active");
            check_bool "uptime above 0" true
              (match sample text "service_uptime_seconds" with
              | Some up -> up > 0.0
              | None -> false)
          | Error msg -> Alcotest.fail msg))

let test_client_io_timeout () =
  (* A peer that accepts but never answers: the client's I/O deadline
     must surface as a transport error, not a hang — this is what lets
     the router fail over from a stalled backend. *)
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close lsock with _ -> ())
    (fun () ->
      let c = Client.connect ~io_timeout_s:0.2 ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          match Client.ping c with
          | Ok () -> Alcotest.fail "ping answered by a mute peer"
          | Error _ ->
            check_bool "timed out promptly" true
              (Unix.gettimeofday () -. t0 < 2.0)))

let test_server_trace_id_echo () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          check_bool "no id before the first call" true (Client.last_trace_id c = 0L);
          let id = 0x1234_5678_9abc_def0L in
          (match
             Client.schedule ~trace_id:id c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2
           with
          | Ok (Wire.Scheduled _) -> ()
          | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg);
          check_bool "explicit id echoed by the server" true
            (Client.last_trace_id c = id);
          (match Client.ping c with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg);
          let minted = Client.last_trace_id c in
          check_bool "absent id is minted" true (minted <> 0L && minted <> id)))

let test_server_request_tracing () =
  (* with a tracer configured, one traced request produces spans on its
     own req-<id> track *)
  let tracer = Flb_obs.Trace.create () in
  let config = { Server.default_config with tracer } in
  with_server ~config (fun _srv port ->
      with_client port (fun c ->
          let id = 0xfeed_f00dL in
          (match
             Client.schedule ~trace_id:id c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2
           with
          | Ok (Wire.Scheduled _) -> ()
          | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg);
          let jsonl = Flb_obs.Trace.to_jsonl tracer in
          let track =
            Printf.sprintf "req-%s" (Flb_obs.Trace_context.id_to_string id)
          in
          check_bool "request track present" true (contains jsonl track);
          List.iter
            (fun span ->
              check_bool (Printf.sprintf "span %s present" span) true
                (contains jsonl (Printf.sprintf "%S" span)))
            [ "cache"; "execute" ]))

(* --- server: failure injection --- *)

let expect_error code = function
  | Ok (Wire.Error e) ->
    Alcotest.(check string)
      "error code"
      (Wire.error_code_to_string code)
      (Wire.error_code_to_string e.code)
  | Ok resp -> Alcotest.failf "expected error, got %s" (show_response resp)
  | Error msg -> Alcotest.failf "transport error instead of response: %s" msg

let test_server_structured_errors () =
  with_server (fun _srv port ->
      with_client port (fun c ->
          let cyclic = "tasks 2\ntask 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n" in
          expect_error Wire.Invalid_graph
            (Client.schedule c ~graph:cyclic ~algo:"FLB" ~procs:2);
          expect_error Wire.Invalid_graph
            (Client.schedule c ~graph:"not a graph" ~algo:"FLB" ~procs:2);
          expect_error Wire.Unknown_algorithm
            (Client.schedule c ~graph:(fig1_text ()) ~algo:"MAGIC" ~procs:2);
          expect_error Wire.Bad_request
            (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:0);
          (* the connection survives all of the above *)
          Alcotest.(check (result unit string)) "still serving" (Ok ())
            (Client.ping c)))

let graph_parses srv =
  Flb_obs.Metrics.Counter.value
    (Flb_obs.Metrics.counter (Server.metrics srv) "service_graph_parses_total")

(* A miss is parsed on a worker domain; a malformed graph still answers
   Invalid_graph from there, after exactly one parse. *)
let test_server_bad_graph_parsed_once () =
  with_server (fun srv port ->
      with_client port (fun c ->
          let before = graph_parses srv in
          expect_error Wire.Invalid_graph
            (Client.schedule c ~graph:"tasks 2\ntask 0 1\ntask 1 oops\n" ~algo:"FLB"
               ~procs:2);
          check_int "one parse" (before + 1) (graph_parses srv)))

let test_server_rejects_raw_garbage () =
  with_server (fun _srv port ->
      (* garbage payload in a well-formed frame: structured error, and the
         connection keeps serving *)
      with_client port (fun c ->
          with_raw_conn port (fun ~fd:_ ~oc ~answer ->
              Wire.write_frame oc "\xde\xad\xbe\xef";
              expect_error Wire.Bad_request (answer ());
              (* same connection still answers a well-formed request *)
              Wire.write_frame oc (Wire.encode_request Wire.Ping);
              match answer () with
              | Ok Wire.Pong -> ()
              | Ok resp -> Alcotest.failf "expected Pong, got %s" (show_response resp)
              | Error msg -> Alcotest.fail msg);
          (* and the server as a whole is still alive *)
          Alcotest.(check (result unit string)) "server alive" (Ok ())
            (Client.ping c)))

let test_server_truncated_frame () =
  with_server (fun _srv port ->
      with_client port (fun probe ->
          with_raw_conn port (fun ~fd ~oc ~answer ->
              (* header promises 64 bytes; send 5 and half-close *)
              let header = Bytes.create 4 in
              Bytes.set_int32_be header 0 64l;
              output_bytes oc header;
              output_string oc "trunc";
              flush oc;
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              match answer () with
              | Error msg -> Alcotest.failf "no structured response to truncation: %s" msg
              | resp -> expect_error Wire.Bad_request resp);
          Alcotest.(check (result unit string)) "server alive" (Ok ())
            (Client.ping probe)))

let test_server_oversized_frame () =
  let config = { Server.default_config with max_frame = 4096 } in
  with_server ~config (fun _srv port ->
      with_client port (fun probe ->
          with_raw_conn port (fun ~fd:_ ~oc ~answer ->
              let header = Bytes.create 4 in
              Bytes.set_int32_be header 0 1_000_000l;
              output_bytes oc header;
              flush oc;
              match answer () with
              | Error msg ->
                Alcotest.failf "no structured response to oversized frame: %s" msg
              | resp -> expect_error Wire.Bad_request resp);
          Alcotest.(check (result unit string)) "server alive" (Ok ())
            (Client.ping probe)))

(* --- listener: framing policy and lifecycle --- *)

let test_listener () =
  let registry = Flb_obs.Metrics.create () in
  let counter = Flb_obs.Metrics.counter registry in
  let errors = counter "errors" in
  let stops = Atomic.make 0 in
  let l = Listener.bind ~host:"127.0.0.1" ~port:0 in
  (* Scripted: Ping answers Pong, Shutdown returns [false], Get_load
     raises. *)
  Listener.serve l ~max_frame:4096 ~requests:(counter "requests") ~errors
    ~connections:(counter "connections")
    ~on_stop:(fun () -> Atomic.incr stops)
    (fun ~respond ~trace_id -> function
      | Wire.Ping ->
        respond ~trace_id Wire.Pong;
        true
      | Wire.Shutdown -> false
      | Wire.Get_load -> failwith "scripted handler failure"
      | _ -> true);
  let port = Listener.port l in
  let bad_request what = function
    | Ok (Wire.Error { code = Wire.Bad_request; _ }) -> ()
    | Ok resp -> Alcotest.failf "%s: answered %s" what (show_response resp)
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  let pong what = function
    | Ok Wire.Pong -> ()
    | Ok resp -> Alcotest.failf "%s: answered %s" what (show_response resp)
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  let eof what = function
    | Error msg when msg = Wire.read_error_to_string Wire.Closed -> ()
    | Ok resp -> Alcotest.failf "%s: answered %s" what (show_response resp)
    | Error msg -> Alcotest.failf "%s: %s instead of EOF" what msg
  in
  let ping = Wire.encode_request Wire.Ping in
  Fun.protect
    ~finally:(fun () -> Listener.request_stop l)
    (fun () ->
      (* A foreign version byte: one Bad_request, and the connection
         keeps serving. *)
      with_raw_conn port (fun ~fd:_ ~oc ~answer ->
          Wire.write_frame oc "\x01\x03";
          bad_request "v1 frame" (answer ());
          Wire.write_frame oc ping;
          pong "Ping after the v1 frame" (answer ());
          match Listener.connections l with
          | [ c ] -> check_int "frames read on the open connection" 2 c.conn_requests
          | rows -> Alcotest.failf "%d open connections listed" (List.length rows));
      (* The header promises 64 bytes; 5 arrive, then the peer
         half-closes. *)
      with_raw_conn port (fun ~fd ~oc ~answer ->
          output_string oc "\x00\x00\x00\x40trunc";
          flush oc;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          bad_request "truncated frame" (answer ());
          eof "after the truncated frame" (answer ()));
      (* The header declares 1,000,000 bytes, above [max_frame]. *)
      with_raw_conn port (fun ~fd:_ ~oc ~answer ->
          output_string oc "\x00\x0f\x42\x40";
          flush oc;
          bad_request "oversized frame" (answer ());
          eof "after the oversized frame" (answer ()));
      check_int "errors: v1, truncated, oversized" 3
        (Flb_obs.Metrics.Counter.value errors);
      with_raw_conn port (fun ~fd:_ ~oc ~answer ->
          Wire.write_frame oc (Wire.encode_request Wire.Shutdown);
          eof "handler returned false" (answer ()));
      with_raw_conn port (fun ~fd:_ ~oc ~answer ->
          Wire.write_frame oc (Wire.encode_request Wire.Get_load);
          eof "handler raised" (answer ()));
      with_raw_conn port (fun ~fd:_ ~oc ~answer ->
          Wire.write_frame oc ping;
          pong "a new connection" (answer ())));
  check_bool "stopping" true (Listener.stopping l);
  Listener.wait l;
  check_bool "stopped" true (Listener.stopped l);
  check_int "on_stop ran once" 1 (Atomic.get stops);
  match Client.connect ~port () with
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | c ->
    Client.close c;
    Alcotest.fail "connect accepted after stop"

(* --- server: admission control and deadlines --- *)

(* Distinct graphs (one per request) keep the cache out of the picture. *)
let distinct_graph i =
  Serial.to_string
    (build_dag
       { layers = 4; max_width = 3; edge_probability = 0.5; ccr = 1.0; seed = 900 + i })

let test_server_admission_control () =
  (* one worker occupied for 0.4 s, queue of one: concurrent requests
     beyond the first two must be shed with Overloaded, while the
     admitted ones still complete with correct schedules *)
  let config =
    {
      Server.default_config with
      domains = 1;
      queue_capacity = 1;
      work_delay_s = 0.4;
      deadline_s = 30.0;
    }
  in
  with_server ~config (fun _srv port ->
      let results = Array.make 4 (Error "never ran") in
      let fire i delay =
        Thread.create
          (fun () ->
            Thread.delay delay;
            with_client port (fun c ->
                results.(i) <-
                  Client.schedule c ~graph:(distinct_graph i) ~algo:"FLB" ~procs:2))
          ()
      in
      (* request 0 reaches the worker; 0.15 s later the rest arrive while
         the worker still sleeps: one is queued, the others are shed *)
      let t0 = fire 0 0.0 in
      let rest = List.init 3 (fun i -> fire (i + 1) 0.15) in
      List.iter Thread.join (t0 :: rest);
      let scheduled, overloaded =
        Array.fold_left
          (fun (s, o) r ->
            match r with
            | Ok (Wire.Scheduled _) -> (s + 1, o)
            | Ok Wire.Overloaded -> (s, o + 1)
            | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
            | Error msg -> Alcotest.failf "transport error: %s" msg)
          (0, 0) results
      in
      check_int "exactly queue+workers admitted" 2 scheduled;
      check_int "the rest shed" 2 overloaded;
      (* in-flight results are correct, not just present *)
      Array.iteri
        (fun i r ->
          match r with
          | Ok (Wire.Scheduled resp) ->
            let g = Serial.of_string (distinct_graph i) in
            let s =
              Schedule_io.of_string g (Machine.clique ~num_procs:2) resp.schedule
            in
            check_bool
              (Printf.sprintf "request %d schedule validates" i)
              true
              (Schedule.validate s = Ok ())
          | _ -> ())
        results)

(* Admission comes before parsing: with the one worker busy and the
   one queue slot taken, a malformed graph is shed as Overloaded
   without being parsed. *)
let test_server_sheds_before_parsing () =
  let config =
    {
      Server.default_config with
      domains = 1;
      queue_capacity = 1;
      work_delay_s = 0.5;
      deadline_s = 30.0;
    }
  in
  with_server ~config (fun srv port ->
      let wait_until what cond =
        let deadline = Unix.gettimeofday () +. 5.0 in
        while not (cond ()) do
          if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what;
          Thread.delay 0.005
        done
      in
      let results = Array.make 2 (Error "never ran") in
      let fire i =
        Thread.create
          (fun () ->
            with_client port (fun c ->
                results.(i) <-
                  Client.schedule c ~graph:(distinct_graph (60 + i)) ~algo:"FLB" ~procs:2))
          ()
      in
      (* request 0 is picked up (and parsed) by the worker, which then
         sleeps; request 1 waits in the queue *)
      let t0 = fire 0 in
      wait_until "the worker's parse" (fun () -> graph_parses srv = 1);
      let t1 = fire 1 in
      with_client port (fun c ->
          wait_until "a queued job" (fun () ->
              match Client.get_load c with
              | Ok load -> load.Wire.pending = 1
              | Error msg -> Alcotest.fail msg);
          match Client.schedule c ~graph:"not a graph" ~algo:"FLB" ~procs:2 with
          | Ok Wire.Overloaded -> ()
          | Ok resp -> Alcotest.failf "expected Overloaded, got %s" (show_response resp)
          | Error msg -> Alcotest.fail msg);
      check_int "the shed graph was not parsed" 1 (graph_parses srv);
      List.iter Thread.join [ t0; t1 ];
      Array.iter
        (function
          | Ok (Wire.Scheduled _) -> ()
          | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
          | Error msg -> Alcotest.fail msg)
        results;
      check_int "one parse per admitted miss" 2 (graph_parses srv))

let test_server_queue_deadline () =
  let config =
    {
      Server.default_config with
      domains = 1;
      queue_capacity = 4;
      work_delay_s = 0.4;
      deadline_s = 0.1;
    }
  in
  with_server ~config (fun _srv port ->
      let second = ref (Error "never ran") in
      let t1 =
        Thread.create
          (fun () ->
            with_client port (fun c ->
                ignore (Client.schedule c ~graph:(distinct_graph 50) ~algo:"FLB" ~procs:2)))
          ()
      in
      Thread.delay 0.15;
      let t2 =
        Thread.create
          (fun () ->
            with_client port (fun c ->
                second :=
                  Client.schedule c ~graph:(distinct_graph 51) ~algo:"FLB" ~procs:2))
          ()
      in
      Thread.join t1;
      Thread.join t2;
      (* the queued request waited ~0.25 s behind the 0.4 s job: over its
         0.1 s deadline, so it must be answered with the structured
         deadline error rather than scheduled late *)
      expect_error Wire.Deadline_exceeded !second)

let test_server_drain () =
  let srv = Server.start { Server.default_config with host = "127.0.0.1"; port = 0 } in
  let port = Server.port srv in
  with_client port (fun c ->
      (match Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2 with
      | Ok (Wire.Scheduled _) -> ()
      | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check (result unit string))
        "drain acknowledged" (Ok ()) (Client.drain c);
      (* while draining, existing connections keep being served but new
         streaming sessions are refused *)
      (match Client.open_stream c ~algo:"FLB" ~procs:2 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "draining daemon opened a stream"));
  (* with no in-flight work left, the daemon exits on its own *)
  Server.wait srv;
  (match Client.connect ~port () with
  | exception Unix.Unix_error _ -> ()
  | c -> Client.close c);
  (* stop after the fact is a no-op *)
  Server.stop srv

let test_server_graceful_shutdown () =
  let srv = Server.start { Server.default_config with port = 0 } in
  let port = Server.port srv in
  with_client port (fun c ->
      Alcotest.(check (result unit string)) "acknowledged" (Ok ()) (Client.shutdown c));
  Server.wait srv;
  (* the port is released: connecting now must fail *)
  (match Client.connect ~port () with
  | exception Unix.Unix_error _ -> ()
  | c ->
    (* accept loop is gone; at best the connection is refused lazily *)
    Client.close c);
  (* stop after the fact is a no-op *)
  Server.stop srv

(* --- server: streaming sessions --- *)

let okr = function Ok v -> v | Error msg -> Alcotest.fail msg

(* A streaming config that never ticks on its own: rounds happen only
   when a Seal (or an explicit threshold crossing) forces one, which
   makes round boundaries deterministic for the assertions below. *)
let quiet_stream ?(batch_tasks = max_int) () =
  { Flb_stream.Scheduler_loop.default_config with batch_tasks; tick_period_s = 1e9 }

let graph_parts g =
  let comps = Array.init (Taskgraph.num_tasks g) (Taskgraph.comp g) in
  let edges = ref [] in
  Taskgraph.iter_edges (fun src dst comm -> edges := (src, dst, comm) :: !edges) g;
  (comps, Array.of_list (List.rev !edges))

let test_server_stream_matches_one_shot () =
  (* The frozen-prefix identity, end to end over the wire: a graph
     streamed whole and sealed schedules bit-identically to the same
     graph submitted as a one-shot Schedule, for every paper workload
     in the Fig. 4 suite and more than one algorithm. *)
  let config = { Server.default_config with stream = quiet_stream () } in
  with_server ~config (fun _srv port ->
      with_client port (fun c ->
          List.iter
            (fun algo ->
              List.iter
                (fun w ->
                  let g = w.Flb_experiments.Workload_suite.structure in
                  let name =
                    Printf.sprintf "%s/%s" w.Flb_experiments.Workload_suite.name algo
                  in
                  let one_shot =
                    match
                      Client.schedule c ~graph:(Serial.to_string g) ~algo ~procs:4
                    with
                    | Ok (Wire.Scheduled r) -> r.makespan
                    | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
                    | Error msg -> Alcotest.fail msg
                  in
                  let comps, edges = graph_parts g in
                  let stream = okr (Client.open_stream c ~algo ~procs:4) in
                  ignore (okr (Client.add_tasks c ~stream ~comps));
                  ignore (okr (Client.add_edges c ~stream ~edges));
                  let final = okr (Client.seal_stream c ~stream) in
                  check_bool (name ^ " final") true final.Client.final;
                  check_int (name ^ " fully placed") (Array.length comps)
                    (Array.length final.Client.placements);
                  check_float (name ^ " streamed = one-shot") one_shot
                    final.Client.makespan)
                (Flb_experiments.Workload_suite.fig4_suite ~tasks:60 ()))
            [ "FLB"; "ETF" ]))

let test_server_stream_cache_bypass () =
  (* Streaming rounds must not touch the LRU: partial-graph keys never
     repeat, so counting them as misses would poison
     service_cache_hit_rate for one-shot traffic. They are counted as
     rounds instead. *)
  let config = { Server.default_config with stream = quiet_stream () } in
  with_server ~config (fun _srv port ->
      with_client port (fun c ->
          let graph = fig1_text () in
          (* warm the cache to a known hit rate: one miss, one hit *)
          List.iter
            (fun expect_hit ->
              match Client.schedule c ~graph ~algo:"FLB" ~procs:2 with
              | Ok (Wire.Scheduled r) ->
                check_bool "warmup hit/miss" expect_hit r.cache_hit
              | Ok resp -> Alcotest.failf "unexpected: %s" (show_response resp)
              | Error msg -> Alcotest.fail msg)
            [ false; true ];
          let before = okr (Client.get_load c) in
          let comps, edges = graph_parts (Example.fig1 ()) in
          let stream = okr (Client.open_stream c ~algo:"FLB" ~procs:2) in
          ignore (okr (Client.add_tasks c ~stream ~comps));
          ignore (okr (Client.add_edges c ~stream ~edges));
          let final = okr (Client.seal_stream c ~stream) in
          check_float "streamed fig1 makespan" Example.fig1_schedule_length
            final.Client.makespan;
          let after = okr (Client.get_load c) in
          check_float "hit rate untouched by streaming" before.Wire.cache_hit_rate
            after.Wire.cache_hit_rate;
          check_int "no cache fills from streaming" before.Wire.cache_entries
            after.Wire.cache_entries;
          (* the seal's round shows up as a round, not a miss *)
          match Client.get_stats c ~format:Wire.Stats_json with
          | Ok s -> check_bool "round counted" true (contains s "\"rounds\":1")
          | Error msg -> Alcotest.fail msg))

let test_server_stream_two_clients_batched () =
  (* Two clients with open streams on the same (algo, procs): the round
     forced by A's seal schedules BOTH pending subgraphs as one
     super-DAG, and every placement reaches its own stream — none
     dropped, none crossed. *)
  let config = { Server.default_config with stream = quiet_stream () } in
  with_server ~config (fun _srv port ->
      with_client port (fun ca ->
          with_client port (fun cb ->
              let sa = okr (Client.open_stream ca ~algo:"FLB" ~procs:2) in
              let sb = okr (Client.open_stream cb ~algo:"FLB" ~procs:2) in
              ignore (okr (Client.add_tasks ca ~stream:sa ~comps:[| 1.0; 1.0 |]));
              ignore (okr (Client.add_edges ca ~stream:sa ~edges:[| (0, 1, 1.0) |]));
              ignore (okr (Client.add_tasks cb ~stream:sb ~comps:[| 2.0; 2.0 |]));
              ignore (okr (Client.add_edges cb ~stream:sb ~edges:[| (0, 1, 1.0) |]));
              let fa = okr (Client.seal_stream ca ~stream:sa) in
              check_bool "A final" true fa.Client.final;
              (* B's placements were computed in that same round *)
              let pb = okr (Client.poll_stream cb ~stream:sb) in
              let fb = okr (Client.seal_stream cb ~stream:sb) in
              check_bool "B final" true fb.Client.final;
              let tasks p =
                Array.to_list (Array.map (fun (t, _, _) -> t) p.Client.placements)
              in
              Alcotest.(check (list int))
                "A fully placed, nothing dropped" [ 0; 1 ]
                (List.sort compare (tasks fa));
              Alcotest.(check (list int))
                "B fully placed, nothing dropped" [ 0; 1 ]
                (List.sort compare (tasks pb @ tasks fb));
              (* the shared round really did merge both streams *)
              match Client.get_metrics ca with
              | Ok m ->
                check_bool "stream_batch_streams reports 2" true
                  (contains m "stream_batch_streams 2")
              | Error msg -> Alcotest.fail msg)))

let test_server_stream_structured_errors () =
  (* Malformed appends answer structured errors on a live connection,
     and a rejected append does not kill the stream. batch_tasks = 2
     forces a dispatch mid-stream so the edge-into-dispatched rejection
     is reachable over the wire. *)
  let config = { Server.default_config with stream = quiet_stream ~batch_tasks:2 () } in
  with_server ~config (fun _srv port ->
      with_client port (fun c ->
          (match Client.poll_stream c ~stream:999 with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "poll of an unknown stream succeeded");
          let stream = okr (Client.open_stream c ~algo:"FLB" ~procs:2) in
          ignore (okr (Client.add_tasks c ~stream ~comps:[| 1.0; 1.0 |]));
          (match Client.add_edges c ~stream ~edges:[| (0, 0, 1.0) |] with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "self edge accepted");
          (match Client.add_edges c ~stream ~edges:[| (0, 5, 1.0) |] with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unknown endpoint accepted");
          (* the stream survives the rejections; this append crosses the
             2-task threshold and dispatches tasks 0 and 1 *)
          let p = okr (Client.add_edges c ~stream ~edges:[| (0, 1, 1.0) |]) in
          check_int "threshold round dispatched the prefix" 2
            (Array.length p.Client.placements);
          ignore (okr (Client.add_tasks c ~stream ~comps:[| 1.0 |]));
          (* an edge INTO a dispatched task is rejected: its placement
             was already announced and cannot be revised *)
          (match Client.add_edges c ~stream ~edges:[| (2, 1, 1.0) |] with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "edge into a dispatched task accepted");
          (* an edge FROM a dispatched task is the normal rolling case *)
          ignore (okr (Client.add_edges c ~stream ~edges:[| (0, 2, 1.0) |]));
          let final = okr (Client.seal_stream c ~stream) in
          check_bool "final despite rejections" true final.Client.final;
          check_bool "took at least two rounds" true (final.Client.round >= 2);
          (* the connection survives all of the above *)
          Alcotest.(check (result unit string)) "still serving" (Ok ())
            (Client.ping c)))

let suite =
  [
    Alcotest.test_case "wire: malformed payloads rejected" `Quick test_wire_malformed;
    Alcotest.test_case "wire: framing" `Quick test_wire_framing;
    Alcotest.test_case "cache: LRU capacity-1 stress" `Quick test_cache_lru;
    Alcotest.test_case "cache: eviction follows access order" `Quick
      test_cache_access_order;
    Alcotest.test_case "cache: key construction" `Quick test_cache_key;
    Alcotest.test_case "cache: processor mask keys distinct entries" `Quick
      test_cache_key_mask;
    Alcotest.test_case "cache: graph digest is stable" `Quick test_cache_digest;
    Alcotest.test_case "pool: bounded queue rejects, drains on shutdown" `Quick
      test_pool_rejects_and_drains;
    Alcotest.test_case "pool: contains raising jobs" `Quick
      test_pool_contains_exceptions;
    Alcotest.test_case "server: end to end on fig1" `Quick test_server_end_to_end;
    Alcotest.test_case "server: cache hit is byte-identical" `Quick
      test_server_cache_hit_byte_identical;
    Alcotest.test_case "server: stats snapshot" `Quick test_server_stats;
    Alcotest.test_case "server: stats JSON schema" `Quick test_server_stats_schema;
    Alcotest.test_case "server: load probe" `Quick test_server_get_load;
    Alcotest.test_case "server: metrics gauges are live" `Quick
      test_server_metrics_live;
    Alcotest.test_case "client: I/O deadline on a mute peer" `Quick
      test_client_io_timeout;
    Alcotest.test_case "server: trace id minted and echoed" `Quick
      test_server_trace_id_echo;
    Alcotest.test_case "server: request tracing spans" `Quick
      test_server_request_tracing;
    Alcotest.test_case "server: structured errors" `Quick
      test_server_structured_errors;
    Alcotest.test_case "server: a bad graph is parsed once" `Quick
      test_server_bad_graph_parsed_once;
    Alcotest.test_case "server: garbage payload" `Quick
      test_server_rejects_raw_garbage;
    Alcotest.test_case "server: truncated frame" `Quick test_server_truncated_frame;
    Alcotest.test_case "server: oversized frame" `Quick test_server_oversized_frame;
    Alcotest.test_case "listener: framing policy and lifecycle" `Quick
      test_listener;
    Alcotest.test_case "server: admission control sheds load" `Quick
      test_server_admission_control;
    Alcotest.test_case "server: a full pool sheds before parsing" `Quick
      test_server_sheds_before_parsing;
    Alcotest.test_case "server: queueing deadline" `Quick test_server_queue_deadline;
    Alcotest.test_case "server: graceful shutdown" `Quick
      test_server_graceful_shutdown;
    Alcotest.test_case "server: drain finishes work and exits" `Quick
      test_server_drain;
    Alcotest.test_case "stream: sealed stream matches one-shot" `Quick
      test_server_stream_matches_one_shot;
    Alcotest.test_case "stream: rounds bypass the cache" `Quick
      test_server_stream_cache_bypass;
    Alcotest.test_case "stream: two clients batch into one round" `Quick
      test_server_stream_two_clients_batched;
    Alcotest.test_case "stream: structured append errors" `Quick
      test_server_stream_structured_errors;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite_wire
