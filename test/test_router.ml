(* The sharded serving tier: consistent-hash ring, shard balancer, and
   the router end to end — replication, hot/cold routing, failover under
   refused connections, stalled backends and mid-request kills. *)

open! Flb_taskgraph
open Testutil
module Wire = Flb_service.Wire
module Cache = Flb_service.Cache
module Server = Flb_service.Server
module Client = Flb_service.Client
module Listener = Flb_service.Listener
module Ring = Flb_router.Ring
module Backend = Flb_router.Backend
module Balancer = Flb_router.Balancer
module Gossip = Flb_router.Gossip
module Router = Flb_router.Router
module Metrics = Flb_obs.Metrics
module Json = Flb_prelude.Json

(* --- ring --- *)

let test_ring_basics () =
  check_raises_invalid "vnodes 0" (fun () -> ignore (Ring.create ~vnodes:0 [ "a" ]));
  let empty = Ring.create [] in
  check_int "empty size" 0 (Ring.size empty);
  check_bool "empty lookup" true (Ring.lookup empty ~n:3 "k" = []);
  check_bool "empty primary" true (Ring.primary empty "k" = None);
  let ring = Ring.create [ "b"; "a"; "c"; "a" ] in
  check_int "duplicates collapse" 3 (Ring.size ring);
  Alcotest.(check (list string)) "members sorted" [ "a"; "b"; "c" ]
    (Ring.members ring);
  (* lookups are deterministic, distinct, bounded and start at the
     primary *)
  for i = 0 to 20 do
    let key = Printf.sprintf "key-%d" i in
    let two = Ring.lookup ring ~n:2 key in
    check_int "two distinct replicas" 2 (List.length (List.sort_uniq compare two));
    check_bool "primary heads the replica list" true
      (Ring.primary ring key = Some (List.hd two));
    check_bool "over-asking returns everyone" true
      (List.sort compare (Ring.lookup ring ~n:10 key) = [ "a"; "b"; "c" ])
  done;
  (* a second identically-built ring agrees on every assignment *)
  let ring2 = Ring.create [ "a"; "b"; "c" ] in
  for i = 0 to 50 do
    let key = Printf.sprintf "agree-%d" i in
    check_bool "rings agree across constructions" true
      (Ring.lookup ring ~n:2 key = Ring.lookup ring2 ~n:2 key)
  done;
  (* add/remove are no-ops for present/absent members *)
  check_bool "add existing is identity" true
    (Ring.members (Ring.add ring "b") = Ring.members ring);
  check_bool "remove absent is identity" true
    (Ring.members (Ring.remove ring "zz") = Ring.members ring)

(* The consistency property the router rides on (ISSUE satellite): one
   more backend remaps only the keys that now land on it — about
   1/(N+1) of them — and removing it restores every assignment. *)
let qsuite_ring =
  [
    qtest ~count:60 "add remaps ~K/N keys to the newcomer; remove restores"
      (QCheck.make
         ~print:(fun (n, salt) -> Printf.sprintf "n=%d salt=%d" n salt)
         QCheck.Gen.(pair (int_range 2 8) (int_range 0 10_000)))
      (fun (n, salt) ->
        let members = List.init n (fun i -> Printf.sprintf "b%d-%d" salt i) in
        let keys = List.init 200 (fun i -> Printf.sprintf "key-%d-%d" salt i) in
        let newcomer = Printf.sprintf "b%d-new" salt in
        let ring = Ring.create members in
        let ring' = Ring.add ring newcomer in
        let changed =
          List.filter (fun k -> Ring.primary ring k <> Ring.primary ring' k) keys
        in
        (* every remapped key moved TO the newcomer, nowhere else *)
        List.for_all (fun k -> Ring.primary ring' k = Some newcomer) changed
        (* and not many of them: fair share is K/(N+1); allow 2.5x + slack
           for vnode placement variance (deterministic given MD5) *)
        && List.length changed <= (5 * List.length keys / (2 * (n + 1))) + 5
        &&
        let restored = Ring.remove ring' newcomer in
        Ring.members restored = Ring.members ring
        && List.for_all
             (fun k -> Ring.primary restored k = Ring.primary ring k)
             keys);
  ]

(* --- balancer --- *)

let mk_backends ports = List.map (fun p -> Backend.create ~port:p ()) ports

let test_balancer_candidates () =
  let backends = mk_backends [ 7001; 7002; 7003 ] in
  let ids = List.map Backend.id backends in
  let ring = Ring.create ids in
  let bal =
    Balancer.create ~ring ~replication:2 ~split_factor:2 ~backends
  in
  let key = "some-shard-key" in
  let cands = Balancer.candidates bal key ~hot:false in
  check_int "replication-wide" 2 (List.length cands);
  check_bool "cold keys go primary-first" true
    (Ring.primary ring key = Some (Backend.id (List.hd cands)));
  (* a Down primary is filtered out *)
  Backend.set_status (List.hd cands) Backend.Down;
  let up = Balancer.candidates bal key ~hot:false in
  check_int "down replica filtered" 1 (List.length up);
  check_bool "survivor is up" true (Backend.status (List.hd up) = Backend.Up);
  (* everything down: fall back to the unfiltered set so calls decide *)
  List.iter (fun b -> Backend.set_status b Backend.Down) backends;
  check_int "all-down falls back to the full set" 2
    (List.length (Balancer.candidates bal key ~hot:false));
  List.iter (fun b -> Backend.set_status b Backend.Up) backends;
  (* validation *)
  check_raises_invalid "replication 0" (fun () ->
      ignore (Balancer.create ~ring ~replication:0 ~split_factor:1 ~backends));
  check_raises_invalid "ring member without backend" (fun () ->
      ignore
        (Balancer.create
           ~ring:(Ring.add ring "ghost:1")
           ~replication:1 ~split_factor:1 ~backends))

let test_balancer_window_and_split () =
  let backends = mk_backends [ 7101; 7102; 7103 ] in
  let ring = Ring.create (List.map Backend.id backends) in
  let bal = Balancer.create ~ring ~replication:1 ~split_factor:2 ~backends in
  check_int "first sight is cold" 0 (Balancer.note bal "k1");
  check_int "second sight is hot" 1 (Balancer.note bal "k1");
  check_int "other shards unaffected" 0 (Balancer.note bal "k2");
  check_int "shards tracked" 2 (Balancer.shards_tracked bal);
  (* saturate k1: with one shard owning the whole window, tick must
     split it, widening its replica set from 1 to 2 *)
  for _ = 1 to 60 do
    ignore (Balancer.note bal "k1")
  done;
  check_bool "not split before tick" false (Balancer.is_split bal "k1");
  check_int "unsplit width" 1 (List.length (Balancer.candidates bal "k1" ~hot:true));
  Balancer.tick bal;
  check_bool "saturated shard splits" true (Balancer.is_split bal "k1");
  check_bool "quiet shard does not" false (Balancer.is_split bal "k2");
  check_int "split widens the replica set" 2
    (List.length (Balancer.candidates bal "k1" ~hot:true));
  (* the window decays: a few quiet ticks un-split the shard *)
  Balancer.tick bal;
  Balancer.tick bal;
  Balancer.tick bal;
  check_bool "split decays with traffic" false (Balancer.is_split bal "k1")

let test_balancer_decide_split () =
  let d = Balancer.decide_split in
  check_bool "hot shard over fair share splits" true
    (d ~count:60 ~total:60 ~num_backends:3 ~split_factor:2);
  check_bool "below 2x fair share stays" false
    (d ~count:10 ~total:60 ~num_backends:3 ~split_factor:2);
  check_bool "tiny windows never split" false
    (d ~count:20 ~total:20 ~num_backends:3 ~split_factor:2);
  check_bool "split_factor 1 cannot widen" false
    (d ~count:60 ~total:60 ~num_backends:3 ~split_factor:1);
  check_bool "single backend cannot widen" false
    (d ~count:60 ~total:60 ~num_backends:1 ~split_factor:2)

let test_backend_parse_addr () =
  check_bool "host:port" true
    (Backend.parse_addr "10.0.0.1:7440" = Ok ("10.0.0.1", 7440));
  check_bool "bare port means loopback" true
    (Backend.parse_addr "7440" = Ok ("127.0.0.1", 7440));
  check_bool "bad port rejected" true
    (match Backend.parse_addr "host:notaport" with Error _ -> true | Ok _ -> false);
  check_bool "empty host rejected" true
    (match Backend.parse_addr ":7440" with Error _ -> true | Ok _ -> false)

(* --- router helpers --- *)

let fig1_text () = Serial.to_string (Example.fig1 ())

(* A TCP port that refuses connections: bind, read the number, close. *)
let dead_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close s;
  p

let with_servers n f =
  let servers =
    List.init n (fun _ ->
        Server.start { Server.default_config with host = "127.0.0.1"; port = 0 })
  in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop servers)
    (fun () -> f servers)

(* Router on an ephemeral port, health thread off so tests stay
   deterministic (probes are driven explicitly where needed). *)
let with_router ?(replication = 2) ?(split_factor = 2) ?(policy = Router.Hash)
    ?(connect_timeout_s = 0.5) ?(call_timeout_s = 5.0) ?(fail_threshold = 2)
    ?(peers = []) ?(hedge = Router.Hedge_off) backends f =
  let router =
    Router.start
      {
        Router.default_config with
        host = "127.0.0.1";
        port = 0;
        backends;
        peers;
        replication;
        split_factor;
        policy;
        connect_timeout_s;
        call_timeout_s;
        fail_threshold;
        hedge;
        health_period_s = 0.0;
        gossip_period_s = 0.0;
      }
  in
  Fun.protect
    ~finally:(fun () -> Router.stop router)
    (fun () -> f router (Router.port router))

let with_client port f =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* (makespan, cache_hit) of a response that must be Scheduled *)
let expect_scheduled = function
  | Ok (Wire.Scheduled { makespan; cache_hit; _ }) -> (makespan, cache_hit)
  | Ok Wire.Overloaded -> Alcotest.fail "Overloaded instead of Scheduled"
  | Ok (Wire.Error { message; _ }) -> Alcotest.failf "error response: %s" message
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error msg -> Alcotest.failf "transport error: %s" msg

(* A graph whose shard primary (in a ring identical to the router's) is
   [want] — this is what makes the failover tests deterministic: the
   faulty backend IS the first candidate, so success proves failover. *)
let graph_with_primary ~ids ~want ~procs =
  let ring = Ring.create ids in
  let rec go seed =
    if seed > 500 then Alcotest.fail "no graph maps to the wanted backend"
    else
      let g =
        build_dag
          { layers = 3; max_width = 3; edge_probability = 0.5; ccr = 1.0; seed }
      in
      let graph = Serial.to_string g in
      let key = Router.shard_key ~graph ~algo:"FLB" ~procs in
      if Ring.primary ring key = Some want then graph else go (seed + 1)
  in
  go 0

(* --- router: happy path --- *)

let test_router_end_to_end () =
  with_servers 2 (fun servers ->
      let backends =
        List.map (fun s -> ("127.0.0.1", Server.port s)) servers
      in
      with_router backends (fun router port ->
          with_client port (fun c ->
              Alcotest.(check (result unit string)) "ping" (Ok ()) (Client.ping c);
              let makespan, hit =
                expect_scheduled
                  (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2)
              in
              check_float "fig1 makespan through the router"
                Example.fig1_schedule_length makespan;
              check_bool "first request misses" false hit;
              (* hot path: same shard, no load skew — the primary serves
                 again and its cache hits *)
              let makespan2, hit2 =
                expect_scheduled
                  (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2)
              in
              check_bool "repeat hits the warmed replica" true hit2;
              check_float "hit returns the same makespan"
                Example.fig1_schedule_length makespan2;
              (* local answers: load, stats, metrics *)
              (match Client.get_load c with
              | Ok l ->
                check_int "router counted both schedules" 2 l.Wire.scheduled_total
              | Error msg -> Alcotest.fail msg);
              (match Client.get_stats c ~format:Wire.Stats_json with
              | Ok s ->
                List.iter
                  (fun key ->
                    check_bool (Printf.sprintf "stats carry %S" key) true
                      (Test_service.contains s (Printf.sprintf "%S" key)))
                  [ "role"; "backends"; "replication"; "shards_tracked" ]
              | Error msg -> Alcotest.fail msg);
              (match Client.get_metrics c with
              | Ok text ->
                List.iter
                  (fun m ->
                    check_bool (Printf.sprintf "exposition carries %s" m) true
                      (Test_service.contains text m))
                  [
                    "router_requests_total";
                    "router_scheduled_total";
                    "router_failovers_total";
                    "router_backends_up";
                  ]
              | Error msg -> Alcotest.fail msg));
          (* both backends answered probes; per-shard state tracked *)
          check_int "both backends probe up" 2 (Router.probe_backends router);
          check_bool "balancer saw the shard" true
            (Balancer.shards_tracked (Router.balancer router) >= 1)))

(* [s] with every occurrence of [sub] replaced by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The router's stats --json schema, as the daemon's: every key path
   after one routed request, values aside. The gossip table and the
   per-backend counters are keyed by backend address, so each backend's
   ephemeral port reads as P1 or P2. *)
let test_router_stats_schema () =
  with_servers 2 (fun servers ->
      let ports = List.map Server.port servers in
      let backends = List.map (fun p -> ("127.0.0.1", p)) ports in
      with_router backends (fun _router port ->
          with_client port (fun c ->
              ignore
                (expect_scheduled
                   (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2));
              match Client.get_stats c ~format:Wire.Stats_json with
              | Error msg -> Alcotest.fail msg
              | Ok text -> (
                match Json.of_string text with
                | Error msg -> Alcotest.failf "stats is not JSON: %s" msg
                | Ok json ->
                  let rename path =
                    List.fold_left
                      (fun path (i, p) ->
                        replace_all ~sub:(Printf.sprintf ":%d" p)
                          ~by:(Printf.sprintf ":P%d" (i + 1)) path)
                      path
                      (List.mapi (fun i p -> (i, p)) ports)
                  in
                  let ids = [ "127.0.0.1:P1"; "127.0.0.1:P2" ] in
                  let metrics =
                    [
                      "router_backends_draining"; "router_backends_up";
                      "router_cache_warms_total"; "router_connections_total";
                      "router_drains_total"; "router_errors_total"; "router_failovers_total";
                      "router_gossip_merges_total"; "router_gossip_rounds_total";
                      "router_graph_parses_total"; "router_hedge_total";
                      "router_hedge_wins_total";
                      "router_overloaded_total"; "router_requests_total";
                      "router_scheduled_total"; "router_shards_split";
                      "router_upstream_cache_hits_total";
                      "router_backend__127_0_0_1:P1_failures_total";
                      "router_backend__127_0_0_1:P1_requests_total";
                      "router_backend__127_0_0_1:P2_failures_total";
                      "router_backend__127_0_0_1:P2_requests_total";
                    ]
                    @ histogram_keys "router_request_seconds"
                  in
                  let golden =
                    List.concat
                      [
                        [
                          "role"; "uptime_s"; "policy"; "replication"; "split_factor";
                          "vnodes"; "shards_tracked"; "splits"; "peers";
                        ];
                        key_section "gossip"
                          [ "backends"; "splits"; "splits_epoch"; "exchanges"; "merges" ];
                        List.concat_map
                          (fun id -> key_section ("gossip.backends." ^ id) [ "status"; "epoch" ])
                          ids;
                        "backends"
                        :: key_fields "backends[]"
                             [
                               "id"; "status"; "inflight"; "pending"; "hit_rate"; "requests";
                               "failures"; "last_error";
                             ];
                        key_section "metrics" metrics;
                      ]
                  in
                  Alcotest.(check (list string))
                    "key paths" (List.sort compare golden)
                    (List.sort compare (List.map rename (json_key_paths json)))))))

let test_router_invalid_graph_answered_locally () =
  (* No live backend at all: parse errors must still be answered with a
     structured Invalid_graph, proving the router fails fast locally. *)
  with_router ~connect_timeout_s:0.2
    [ ("127.0.0.1", dead_port ()) ]
    (fun _router port ->
      with_client port (fun c ->
          match Client.schedule c ~graph:"not a graph" ~algo:"FLB" ~procs:2 with
          | Ok (Wire.Error e) ->
            Alcotest.(check string)
              "invalid graph"
              (Wire.error_code_to_string Wire.Invalid_graph)
              (Wire.error_code_to_string e.code)
          | Ok _ -> Alcotest.fail "parse error was not reported"
          | Error msg -> Alcotest.failf "transport error: %s" msg))

(* --- router: failure injection --- *)

let test_router_failover_refused_connection () =
  with_servers 1 (fun servers ->
      let live = Server.port (List.hd servers) in
      let dead = dead_port () in
      (* dead backend first in config order; replication 2 covers both *)
      let backends = [ ("127.0.0.1", dead); ("127.0.0.1", live) ] in
      let ids = [ Printf.sprintf "127.0.0.1:%d" dead;
                  Printf.sprintf "127.0.0.1:%d" live ] in
      let graph =
        graph_with_primary ~ids ~want:(Printf.sprintf "127.0.0.1:%d" dead)
          ~procs:2
      in
      with_router ~connect_timeout_s:0.3 ~fail_threshold:1 backends
        (fun router port ->
          with_client port (fun c ->
              let makespan, _ =
                expect_scheduled (Client.schedule c ~graph ~algo:"FLB" ~procs:2)
              in
              check_bool "schedule is real work" true (makespan > 0.0);
              (* the dead primary was actually tried and demoted *)
              let dead_b =
                List.find
                  (fun b -> Backend.port b = dead)
                  (Router.backends router)
              in
              check_bool "dead backend recorded the failure" true
                (Backend.failures dead_b >= 1);
              check_bool "dead backend demoted" true
                (Backend.status dead_b = Backend.Down);
              (* follow-ups keep succeeding without it *)
              let _, hit2 =
                expect_scheduled (Client.schedule c ~graph ~algo:"FLB" ~procs:2)
              in
              check_bool "retry hits the survivor's cache" true hit2)))

(* A wire-speaking fake backend: answers Ping, misbehaves on Schedule. *)
type fake_behavior = Stall_on_schedule | Close_on_schedule

let start_fake behavior =
  let l = Listener.bind ~host:"127.0.0.1" ~port:0 in
  let counter = Metrics.counter (Metrics.create ()) in
  Listener.serve l ~max_frame:Wire.default_max_frame
    ~requests:(counter "requests") ~errors:(counter "errors")
    ~connections:(counter "connections")
    (fun ~respond ~trace_id -> function
      | Wire.Ping ->
        respond ~trace_id Wire.Pong;
        true
      | Wire.Schedule _ ->
        (match behavior with
        | Stall_on_schedule ->
          (* hold the request open past the router's deadline *)
          while not (Listener.stopping l) do
            Thread.delay 0.02
          done
        | Close_on_schedule ->
          (* die mid-request: drop the connection without answering *)
          ());
        false
      | _ -> true);
  (Listener.port l, fun () -> Listener.request_stop l; Listener.wait l)

let run_fake_failover behavior check_elapsed =
  let fake_port, stop_fake = start_fake behavior in
  Fun.protect ~finally:stop_fake (fun () ->
      with_servers 1 (fun servers ->
          let live = Server.port (List.hd servers) in
          let backends = [ ("127.0.0.1", fake_port); ("127.0.0.1", live) ] in
          let ids = [ Printf.sprintf "127.0.0.1:%d" fake_port;
                      Printf.sprintf "127.0.0.1:%d" live ] in
          let graph =
            graph_with_primary ~ids
              ~want:(Printf.sprintf "127.0.0.1:%d" fake_port)
              ~procs:2
          in
          with_router ~call_timeout_s:0.4 backends (fun router port ->
              with_client port (fun c ->
                  let t0 = Unix.gettimeofday () in
                  let makespan, _ =
                    expect_scheduled
                      (Client.schedule c ~graph ~algo:"FLB" ~procs:2)
                  in
                  let elapsed = Unix.gettimeofday () -. t0 in
                  check_bool "schedule is real work" true (makespan > 0.0);
                  check_elapsed elapsed;
                  let fake_b =
                    List.find
                      (fun b -> Backend.port b = fake_port)
                      (Router.backends router)
                  in
                  check_bool "faulty backend recorded the failure" true
                    (Backend.failures fake_b >= 1)))))

let test_router_failover_stalled_backend () =
  (* the fake answers Ping but never Schedule: only the per-call I/O
     deadline can unstick the router *)
  run_fake_failover Stall_on_schedule (fun elapsed ->
      check_bool "waited for the deadline, not forever" true
        (elapsed >= 0.3 && elapsed < 5.0))

let test_router_failover_killed_mid_request () =
  (* the fake reads the request then drops the connection *)
  run_fake_failover Close_on_schedule (fun elapsed ->
      check_bool "failed over promptly" true (elapsed < 5.0))

let test_router_all_backends_dead () =
  (* nobody to serve: a structured Overloaded, never a hang or a raw
     exception *)
  with_router ~connect_timeout_s:0.2
    [ ("127.0.0.1", dead_port ()); ("127.0.0.1", dead_port ()) ]
    (fun _router port ->
      with_client port (fun c ->
          let t0 = Unix.gettimeofday () in
          (match Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2 with
          | Ok Wire.Overloaded -> ()
          | Ok _ -> Alcotest.fail "dead fleet answered a schedule"
          | Error msg -> Alcotest.failf "transport error instead of Overloaded: %s" msg);
          check_bool "failed fast" true (Unix.gettimeofday () -. t0 < 5.0);
          (* the router itself is still healthy *)
          Alcotest.(check (result unit string)) "still serving" (Ok ())
            (Client.ping c)))

let test_router_round_robin_policy () =
  with_servers 2 (fun servers ->
      let backends =
        List.map (fun s -> ("127.0.0.1", Server.port s)) servers
      in
      with_router ~policy:Router.Round_robin backends (fun router port ->
          with_client port (fun c ->
              for _ = 1 to 4 do
                ignore
                  (expect_scheduled
                     (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB"
                        ~procs:2))
              done);
          (* rotation spreads identical requests over both backends *)
          List.iter
            (fun b ->
              check_int
                (Printf.sprintf "backend %s served its share" (Backend.id b))
                2 (Backend.requests b))
            (Router.backends router)))

(* --- backend: anti-flap hysteresis --- *)

let test_backend_hysteresis () =
  let b = Backend.create ~port:7999 ~fail_threshold:3 () in
  check_bool "starts up" true (Backend.status b = Backend.Up);
  Backend.mark_failed b "boom";
  check_bool "one failure stays up" true (Backend.status b = Backend.Up);
  Backend.mark_failed b "boom";
  check_bool "below threshold stays up" true (Backend.status b = Backend.Up);
  check_int "streak counted" 2 (Backend.consecutive_failures b);
  Backend.mark_failed b "boom";
  check_bool "threshold demotes" true (Backend.status b = Backend.Down);
  (* recovery: one success revives and resets the streak *)
  Backend.mark_ok b;
  check_bool "success revives" true (Backend.status b = Backend.Up);
  check_int "streak reset on success" 0 (Backend.consecutive_failures b);
  (* flapping never demotes: successes interleaved under the threshold *)
  Backend.mark_failed b "flap";
  Backend.mark_failed b "flap";
  Backend.mark_ok b;
  Backend.mark_failed b "flap";
  Backend.mark_failed b "flap";
  check_bool "interleaved successes prevent demotion" true
    (Backend.status b = Backend.Up);
  (* draining is sticky: a successful call must not promote it back *)
  Backend.set_status b Backend.Draining;
  Backend.mark_ok b;
  check_bool "success does not undo draining" true
    (Backend.status b = Backend.Draining);
  check_raises_invalid "threshold 0 rejected" (fun () ->
      ignore (Backend.create ~port:1 ~fail_threshold:0 ()))

let test_router_hysteresis_over_probes () =
  (* one dead backend, threshold 2: the first failed probe keeps it in
     rotation, the second demotes it *)
  with_router ~connect_timeout_s:0.2 ~fail_threshold:2
    [ ("127.0.0.1", dead_port ()) ]
    (fun router _port ->
      let b = List.hd (Router.backends router) in
      ignore (Router.probe_backends router);
      check_bool "one failed probe keeps it up" true
        (Backend.status b = Backend.Up);
      ignore (Router.probe_backends router);
      check_bool "second failed probe demotes" true
        (Backend.status b = Backend.Down))

let test_balancer_draining_preference () =
  let backends = mk_backends [ 7201; 7202 ] in
  let ring = Ring.create (List.map Backend.id backends) in
  let bal = Balancer.create ~ring ~replication:2 ~split_factor:2 ~backends in
  let key = "k" in
  let b1 = List.nth backends 0 and b2 = List.nth backends 1 in
  Backend.set_status b1 Backend.Draining;
  let cands = Balancer.candidates bal key ~hot:false in
  check_int "draining filtered while an up replica exists" 1 (List.length cands);
  check_bool "survivor is the up replica" true
    (Backend.id (List.hd cands) = Backend.id b2);
  (* no Up replica left: draining ones are preferred over down *)
  Backend.set_status b2 Backend.Down;
  let cands = Balancer.candidates bal key ~hot:false in
  check_bool "draining preferred over down" true
    (cands <> [] && List.for_all (fun b -> Backend.status b = Backend.Draining) cands);
  (* everything down: unfiltered fallback, as before *)
  Backend.set_status b1 Backend.Down;
  check_int "all-down falls back to the full set" 2
    (List.length (Balancer.candidates bal key ~hot:false))

(* --- gossip --- *)

let test_gossip_observe_merge () =
  let g1 = Gossip.create ~backends:[ "a"; "b" ] in
  let g2 = Gossip.create ~backends:[ "a"; "b" ] in
  check_bool "starts up" true (Gossip.status_of g1 "a" = Some Wire.Peer_up);
  check_bool "observation changes belief" true
    (Gossip.observe g1 ~backend:"a" Wire.Peer_down);
  check_bool "re-observation is free" false
    (Gossip.observe g1 ~backend:"a" Wire.Peer_down);
  check_bool "epoch bumped" true (Gossip.epoch_of g1 "a" = Some 1);
  (* the peer adopts the fresher epoch and reports the change *)
  let changed = Gossip.merge g2 (Gossip.digest g1) in
  check_bool "merge reports the change" true
    (List.mem ("a", Wire.Peer_down) changed);
  check_bool "peer adopted down" true
    (Gossip.status_of g2 "a" = Some Wire.Peer_down);
  (* a fresher first-hand observation outvotes the stale digest *)
  ignore (Gossip.observe g2 ~backend:"a" Wire.Peer_up);
  check_bool "stale digest changes nothing" true
    (Gossip.merge g2 (Gossip.digest g1) = []);
  check_bool "first-hand up sticks" true
    (Gossip.status_of g2 "a" = Some Wire.Peer_up);
  check_bool "epoch never moved backwards" true (Gossip.epoch_of g2 "a" = Some 2);
  (* splits: re-announcing an unchanged local view does not bump *)
  Gossip.observe_splits g1 [ "s1" ];
  Gossip.observe_splits g1 [ "s1" ];
  ignore (Gossip.merge g2 (Gossip.digest g1));
  Alcotest.(check (list string)) "peer adopted the split set" [ "s1" ]
    (Gossip.splits g2);
  check_bool "merge counters advance" true
    (Gossip.exchanges g2 = 3 && Gossip.merges g2 >= 2)

(* The convergence property the ISSUE pins down: N replicas with
   disjoint local observations hold byte-identical (status, epoch,
   split-set) state after at most N-1 symmetric exchange sweeps along a
   line of peers, and no epoch ever moves backwards. *)
let qsuite_gossip =
  [
    qtest ~count:60 "gossip: N replicas converge in ≤ N-1 rounds"
      (QCheck.make
         ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
         QCheck.Gen.(pair (int_range 2 6) (int_range 0 100_000)))
      (fun (n, seed) ->
        let backends = List.init 4 (fun i -> Printf.sprintf "b%d" i) in
        let routers = Array.init n (fun _ -> Gossip.create ~backends) in
        let st = Random.State.make [| seed |] in
        let statuses = [| Wire.Peer_up; Wire.Peer_draining; Wire.Peer_down |] in
        (* disjoint first-hand observations, plus per-replica split views *)
        Array.iteri
          (fun i g ->
            List.iter
              (fun b ->
                if Random.State.int st 3 = 0 then
                  ignore
                    (Gossip.observe g ~backend:b
                       statuses.(Random.State.int st 3)))
              backends;
            if Random.State.bool st then
              Gossip.observe_splits g [ Printf.sprintf "shard-%d" i ])
          routers;
        let epochs g =
          List.map (fun b -> Option.value ~default:0 (Gossip.epoch_of g b)) backends
        in
        let before = Array.map epochs routers in
        let exchange a b =
          (* the wire protocol: send a digest, the peer merges and
             replies post-merge, the sender merges that back *)
          ignore (Gossip.merge b (Gossip.digest a));
          ignore (Gossip.merge a (Gossip.digest b))
        in
        for _round = 1 to n - 1 do
          for i = 0 to n - 2 do
            exchange routers.(i) routers.(i + 1)
          done
        done;
        let d0 = Gossip.digest routers.(0) in
        Array.for_all
          (fun g -> compare (Gossip.digest g) d0 = 0)
          routers
        && Array.for_all2
             (fun g b0 -> List.for_all2 (fun e e0 -> e >= e0) (epochs g) b0)
             routers before);
  ]

let test_router_gossip_end_to_end () =
  (* two live routers over the same fleet: r1 sees a backend die
     first-hand; one forced exchange makes r2 flip its own handle *)
  with_servers 1 (fun servers ->
      let live = Server.port (List.hd servers) in
      let dead = dead_port () in
      let backends = [ ("127.0.0.1", live); ("127.0.0.1", dead) ] in
      with_router ~fail_threshold:1 backends (fun r2 port2 ->
          with_router ~fail_threshold:1 ~connect_timeout_s:0.3
            ~peers:[ ("127.0.0.1", port2) ]
            backends
            (fun r1 _port1 ->
              let dead_id = Printf.sprintf "127.0.0.1:%d" dead in
              let b2 =
                List.find (fun b -> Backend.id b = dead_id) (Router.backends r2)
              in
              ignore (Router.probe_backends r1);
              check_bool "r2 still believes up" true
                (Backend.status b2 = Backend.Up);
              Router.gossip_now r1;
              check_bool "r2 adopted down via gossip" true
                (Backend.status b2 = Backend.Down);
              check_bool "replica digests agree" true
                (compare
                   (Gossip.digest (Router.gossip r1))
                   (Gossip.digest (Router.gossip r2))
                 = 0);
              check_bool "exchange counted on both sides" true
                (Gossip.exchanges (Router.gossip r1) >= 1
                && Gossip.exchanges (Router.gossip r2) >= 1))))

(* --- drain --- *)

let test_router_drain () =
  with_servers 2 (fun servers ->
      let ports = List.map Server.port servers in
      let backends = List.map (fun p -> ("127.0.0.1", p)) ports in
      with_router backends (fun router port ->
          with_client port (fun c ->
              ignore
                (expect_scheduled
                   (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2));
              (* draining an unknown member is a structured error *)
              (match Client.drain ~backend:"no.such.host:1" c with
              | Error _ -> ()
              | Ok () -> Alcotest.fail "unknown backend drained");
              let target = List.hd (Router.backends router) in
              let addr = Backend.id target in
              (match Client.drain ~backend:addr c with
              | Ok () -> ()
              | Error msg -> Alcotest.fail msg);
              check_bool "backend flipped to draining" true
                (Backend.status target = Backend.Draining);
              check_bool "drain observed in gossip" true
                (Gossip.status_of (Router.gossip router) addr
                = Some Wire.Peer_draining);
              (* new requests keep succeeding on the survivor *)
              ignore
                (expect_scheduled
                   (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2));
              (* the drained daemon finishes its in-flight work and
                 leaves: its port stops accepting *)
              let drained_port = Backend.port target in
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec wait_gone () =
                match Client.connect ~connect_timeout_s:0.2 ~port:drained_port () with
                | exception _ -> ()
                | probe ->
                  Client.close probe;
                  if Unix.gettimeofday () > deadline then
                    Alcotest.fail "drained daemon never exited"
                  else begin
                    Thread.delay 0.1;
                    wait_gone ()
                  end
              in
              wait_gone ())))

(* --- hedging --- *)

let test_router_hedging () =
  (* primary stalls forever on Schedule; the hedge fires after 80 ms and
     the second replica answers, far inside the 1 s per-call deadline *)
  let fake_port, stop_fake = start_fake Stall_on_schedule in
  Fun.protect ~finally:stop_fake (fun () ->
      with_servers 1 (fun servers ->
          let live = Server.port (List.hd servers) in
          let backends = [ ("127.0.0.1", fake_port); ("127.0.0.1", live) ] in
          let ids =
            [
              Printf.sprintf "127.0.0.1:%d" fake_port;
              Printf.sprintf "127.0.0.1:%d" live;
            ]
          in
          let graph =
            graph_with_primary ~ids
              ~want:(Printf.sprintf "127.0.0.1:%d" fake_port)
              ~procs:2
          in
          with_router ~call_timeout_s:1.0 ~fail_threshold:10
            ~hedge:(Router.Hedge_fixed_ms 80.0) backends (fun router port ->
              with_client port (fun c ->
                  (* cold request: primary-first, no hedge — the per-call
                     deadline fails it over and marks the shard hot *)
                  ignore (expect_scheduled (Client.schedule c ~graph ~algo:"FLB" ~procs:2));
                  (* hot request: the stalled primary still heads the
                     candidate list, so only the hedge can finish early *)
                  let t0 = Unix.gettimeofday () in
                  let makespan, _ =
                    expect_scheduled (Client.schedule c ~graph ~algo:"FLB" ~procs:2)
                  in
                  let elapsed = Unix.gettimeofday () -. t0 in
                  check_bool "hedged schedule is real work" true (makespan > 0.0);
                  check_bool "answered well before the primary's deadline" true
                    (elapsed < 0.8);
                  match Client.get_metrics c with
                  | Ok m ->
                    check_bool "hedge counted" true
                      (Test_service.contains m "router_hedge_total 1");
                    check_bool "hedge win counted" true
                      (Test_service.contains m "router_hedge_wins_total 1")
                  | Error msg -> Alcotest.fail msg);
              ignore router)))

(* --- parse once --- *)

(* The value of counter [name] in a Prometheus exposition. Fails when
   the counter or its HELP line is missing, so a misspelt name cannot
   pass a check for zero. *)
let counter_in text name =
  let lines = String.split_on_char '\n' text in
  if
    not
      (List.exists
         (String.starts_with ~prefix:(Printf.sprintf "# HELP %s " name))
         lines)
  then Alcotest.failf "%s has no HELP text" name;
  match
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> int_of_string_opt v
        | _ -> None)
      lines
  with
  | Some v -> v
  | None -> Alcotest.failf "no counter %s" name

let expect_invalid_graph = function
  | Ok (Wire.Error { code = Wire.Invalid_graph; _ }) -> ()
  | Ok _ -> Alcotest.fail "malformed graph not answered Invalid_graph"
  | Error msg -> Alcotest.failf "transport error: %s" msg

let test_router_parses_once () =
  let graphs =
    [
      fig1_text ();
      (* the same graph under other text: its own shard and entry *)
      fig1_text () ^ "# same graph, other text\n";
      Serial.to_string (small_graph ());
    ]
  in
  let k = 5 in
  with_servers 2 (fun servers ->
      let backends = List.map (fun s -> ("127.0.0.1", Server.port s)) servers in
      with_router backends (fun router port ->
          with_client port (fun c ->
              for _ = 1 to k do
                List.iter
                  (fun graph ->
                    ignore
                      (expect_scheduled
                         (Client.schedule c ~graph ~algo:"FLB" ~procs:2)))
                  graphs
              done;
              (* a live fleet judges a malformed graph itself *)
              expect_invalid_graph
                (Client.schedule c ~graph:"not a graph" ~algo:"FLB" ~procs:2));
          check_int "the router parsed nothing" 0
            (counter_in
               (Metrics.to_prometheus (Router.metrics router))
               "router_graph_parses_total");
          let parses =
            List.fold_left
              (fun acc s ->
                let text = Metrics.to_prometheus (Server.metrics s) in
                let parses = counter_in text "service_graph_parses_total" in
                check_int "a daemon parses exactly its cache misses"
                  (counter_in text "cache_misses_total")
                  parses;
                acc + parses)
              0 servers
          in
          (* k rounds, yet each graph misses at most once per replica,
             plus the malformed one: the repeats were hits, unparsed *)
          check_bool "hits were not parsed" true
            (parses <= (2 * List.length graphs) + 1)));
  (* A dead fleet: the router parses once to tell a malformed graph
     (an error) from a well-formed one (shed as Overloaded). *)
  with_router ~connect_timeout_s:0.2
    [ ("127.0.0.1", dead_port ()) ]
    (fun _router port ->
      with_client port (fun c ->
          expect_invalid_graph
            (Client.schedule c ~graph:"not a graph" ~algo:"FLB" ~procs:2);
          let m = Result.get_ok (Client.get_metrics c) in
          check_int "one parse" 1 (counter_in m "router_graph_parses_total");
          check_int "counted as an error" 1 (counter_in m "router_errors_total");
          check_int "not counted as overloaded" 0
            (counter_in m "router_overloaded_total");
          (match Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2 with
          | Ok Wire.Overloaded -> ()
          | _ -> Alcotest.fail "well-formed graph on a dead fleet not shed");
          let m = Result.get_ok (Client.get_metrics c) in
          check_int "second parse" 2 (counter_in m "router_graph_parses_total");
          check_int "shed counted as overloaded" 1
            (counter_in m "router_overloaded_total")))

(* One naming scheme for metrics: every counter the daemon, the router
   and the runtime engine expose is named [..._total]. *)
let test_counters_end_in_total () =
  let counters text =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; "counter" ] -> Some name
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let check_all who text =
    let names = counters text in
    check_bool (who ^ " exposes counters") true (names <> []);
    List.iter
      (fun name ->
        if not (String.ends_with ~suffix:"_total" name) then
          Alcotest.failf "%s counter %s does not end in _total" who name)
      names
  in
  with_servers 1 (fun servers ->
      let backends = List.map (fun s -> ("127.0.0.1", Server.port s)) servers in
      with_router backends (fun router port ->
          with_client port (fun c ->
              ignore
                (expect_scheduled
                   (Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2)));
          check_all "router" (Metrics.to_prometheus (Router.metrics router));
          List.iter
            (fun s -> check_all "daemon" (Metrics.to_prometheus (Server.metrics s)))
            servers));
  let module R = Flb_runtime in
  let g = Example.fig1 () in
  let sched =
    Flb_experiments.Registry.flb.Flb_experiments.Registry.run g
      (Flb_platform.Machine.clique ~num_procs:2)
  in
  let reg = Metrics.create () in
  ignore
    (R.Affinity.run
       ~config:
         { R.Engine.default_config with domains = 2; unit_ns = 2000.0; metrics = Some reg }
       sched);
  check_all "engine" (Metrics.to_prometheus reg)

(* Router shards and daemon cache entries agree for any text: both keys
   take their digest from [Cache.text_digest], canonical or not. *)
let qsuite_keys =
  [
    qtest ~count:100 "shard key and cache key share one text digest"
      arb_scheduling_case
      (fun (p, procs) ->
        let canonical = Serial.to_string (build_dag p) in
        let variants =
          [
            canonical;
            canonical ^ "# appended comment\n";
            String.map (fun ch -> if ch = ' ' then '\t' else ch) canonical;
            String.concat "\r\n" (String.split_on_char '\n' canonical);
          ]
        in
        let digest_of key = List.hd (String.split_on_char '/' key) in
        List.for_all
          (fun graph ->
            digest_of (Router.shard_key ~graph ~algo:"FLB" ~procs)
            = digest_of (Cache.key ~dead:[] ~graph ~algo:"flb" ~procs))
          variants
        (* the digest is over bytes: every variant is its own entry *)
        && List.length (List.sort_uniq compare (List.map Cache.text_digest variants))
           = List.length variants);
  ]

(* --- descriptor hygiene --- *)

let test_connection_churn () =
  (* Short-lived connections open and close as fast as they can against
     a daemon and a router while long-lived clients keep scheduling. A
     descriptor closed twice would sooner or later close a connection
     opened in between, on either side, and show up here as a transport
     error. *)
  with_servers 2 (fun servers ->
      let backends = List.map (fun s -> ("127.0.0.1", Server.port s)) servers in
      let daemon = Server.port (List.hd servers) in
      with_router backends (fun _router router ->
          let errors = Atomic.make 0 in
          let first_error = Atomic.make "" in
          let fail msg =
            Atomic.incr errors;
            ignore (Atomic.compare_and_set first_error "" msg)
          in
          let pings = Atomic.make 0 and schedules = Atomic.make 0 in
          let deadline = Unix.gettimeofday () +. 1.0 in
          let churn port () =
            while Unix.gettimeofday () < deadline do
              match Client.connect ~port ~io_timeout_s:5.0 () with
              | exception e -> fail (Printexc.to_string e)
              | c ->
                (match Client.ping c with
                | Ok () -> Atomic.incr pings
                | Error msg -> fail msg);
                Client.close c
            done
          in
          let steady port () =
            match Client.connect ~port ~io_timeout_s:5.0 () with
            | exception e -> fail (Printexc.to_string e)
            | c ->
              while Unix.gettimeofday () < deadline do
                match
                  Client.schedule c ~graph:(fig1_text ()) ~algo:"FLB" ~procs:2
                with
                | Ok (Wire.Scheduled _) -> Atomic.incr schedules
                | Ok _ -> fail "schedule not answered Scheduled"
                | Error msg -> fail msg
              done;
              Client.close c
          in
          let workers =
            [
              churn daemon; churn daemon; churn router; churn router;
              steady daemon; steady router;
            ]
          in
          let finished = Atomic.make 0 in
          let threads =
            List.map
              (fun f ->
                Thread.create
                  (fun () -> Fun.protect ~finally:(fun () -> Atomic.incr finished) f)
                  ())
              workers
          in
          (* A socket whose descriptor was closed under it can block a
             worker forever: fail instead of hanging the suite. *)
          let give_up = deadline +. 10.0 in
          while
            Atomic.get finished < List.length workers
            && Unix.gettimeofday () < give_up
          do
            Thread.delay 0.05
          done;
          Alcotest.(check string) "first transport error" "" (Atomic.get first_error);
          check_int "every worker finished" (List.length workers)
            (Atomic.get finished);
          List.iter Thread.join threads;
          check_int "zero transport errors" 0 (Atomic.get errors);
          check_bool "connections churned" true (Atomic.get pings > 50);
          check_bool "schedules kept flowing" true (Atomic.get schedules > 10)))

(* --- retired protocol versions --- *)

(* A Ping as protocol versions 1–4 framed it: tag 3 after the version
   byte, with an 8-byte trace id in between from version 2 on. *)
let old_ping v =
  if v = 1 then "\x01\x03"
  else String.make 1 (Char.chr v) ^ String.make 8 '\000' ^ "\x03"

let test_old_versions_refused () =
  (* Each old Ping gets one Bad_request naming its version, and the
     same connection then answers a current Ping: a second answer to the
     old frame would arrive in the Pong's place. *)
  let refuses ~who port =
    Test_service.with_raw_conn port (fun ~fd:_ ~oc ~answer ->
        for v = 1 to 4 do
          Wire.write_frame oc (old_ping v);
          (match answer () with
          | Ok (Wire.Error { code = Wire.Bad_request; message }) ->
            Alcotest.(check string)
              (Printf.sprintf "%s, v%d: message" who v)
              (Printf.sprintf "request: unsupported protocol version %d" v)
              message
          | Ok _ -> Alcotest.failf "%s answered a v%d Ping without Bad_request" who v
          | Error msg -> Alcotest.failf "%s, v%d: %s" who v msg);
          Wire.write_frame oc (Wire.encode_request Wire.Ping);
          match answer () with
          | Ok Wire.Pong -> ()
          | Ok _ -> Alcotest.failf "%s, after v%d: current Ping not answered Pong" who v
          | Error msg -> Alcotest.failf "%s, after v%d: %s" who v msg
        done)
  in
  with_servers 1 (fun servers ->
      let daemon = Server.port (List.hd servers) in
      refuses ~who:"daemon" daemon;
      with_router [ ("127.0.0.1", daemon) ] (fun _router port ->
          refuses ~who:"router" port))

let suite =
  [
    Alcotest.test_case "ring: determinism, distinctness, membership" `Quick
      test_ring_basics;
    Alcotest.test_case "balancer: replica candidates and health" `Quick
      test_balancer_candidates;
    Alcotest.test_case "balancer: traffic window and shard splitting" `Quick
      test_balancer_window_and_split;
    Alcotest.test_case "balancer: split rule" `Quick test_balancer_decide_split;
    Alcotest.test_case "backend: address parsing" `Quick test_backend_parse_addr;
    Alcotest.test_case "router: end to end on fig1" `Quick test_router_end_to_end;
    Alcotest.test_case "router: stats JSON schema" `Quick test_router_stats_schema;
    Alcotest.test_case "router: invalid graph answered locally" `Quick
      test_router_invalid_graph_answered_locally;
    Alcotest.test_case "router: failover on refused connection" `Quick
      test_router_failover_refused_connection;
    Alcotest.test_case "router: failover on stalled backend" `Quick
      test_router_failover_stalled_backend;
    Alcotest.test_case "router: failover on mid-request kill" `Quick
      test_router_failover_killed_mid_request;
    Alcotest.test_case "router: dead fleet answers Overloaded" `Quick
      test_router_all_backends_dead;
    Alcotest.test_case "router: round-robin baseline" `Quick
      test_router_round_robin_policy;
    Alcotest.test_case "backend: anti-flap hysteresis" `Quick
      test_backend_hysteresis;
    Alcotest.test_case "router: hysteresis over failed probes" `Quick
      test_router_hysteresis_over_probes;
    Alcotest.test_case "balancer: draining replicas leave rotation" `Quick
      test_balancer_draining_preference;
    Alcotest.test_case "gossip: observe, merge, epochs" `Quick
      test_gossip_observe_merge;
    Alcotest.test_case "router: gossip flips a peer's backend" `Quick
      test_router_gossip_end_to_end;
    Alcotest.test_case "router: drain empties a backend gracefully" `Quick
      test_router_drain;
    Alcotest.test_case "router: hedged request beats a stalled primary" `Quick
      test_router_hedging;
    Alcotest.test_case "router: graphs parsed once, on misses only" `Quick
      test_router_parses_once;
    Alcotest.test_case "every counter ends in _total" `Quick test_counters_end_in_total;
    Alcotest.test_case "connection churn closes each descriptor once" `Quick
      test_connection_churn;
    Alcotest.test_case "old wire versions get one Bad_request" `Quick
      test_old_versions_refused;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite_ring
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite_gossip
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite_keys
