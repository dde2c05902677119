(* Load generator for the flb_service daemon and the flb_router tier:
   CI's zero-drop driver under kills and drains, plus the hash-policy
   and hedging comparisons. The benchmark numbers — latency, throughput
   and the per-layer split — come from perfbench (perfbench/README.md);
   loadgen's latency and throughput lines are a read-out of its own
   run, and `flb request` prints the stage split of one request.

   Drives N concurrent clients over the E4 (Fig. 4) workload suite —
   LU, Stencil, Laplace instances at the paper's CCRs, scheduled with
   FLB on P = 8 — against either an in-process daemon
   (Server.default_config on an ephemeral port, the default) or the
   external endpoints given with --ports. Each client thread owns one
   connection and issues its requests back to back; the run ends with
   the outcome counts, p50/p95/p99 over the raw request latencies and
   the cache hit rate.

   --router N starts an in-process fleet instead: N backend daemons
   plus a router in front (Router.default_config), and runs the same
   workload twice — once with the consistent-hash policy, once
   round-robin over the same number of fresh backends — then prints the
   two aggregate cache hit rates side by side (hashing keeps each graph
   digest on its replica set, so with replication < N it must win).
   Router runs also print a per-shard table (each distinct graph
   digest: requests, throughput, primary backend) and a per-backend
   table (forwarded requests, failures, backend-reported hit rate).

   Flags (each takes one value; anything else exits 2):
     --clients N       concurrent client connections        (default 4)
     --requests N      requests per client                  (default 200)
     --tasks N         approximate tasks per workload graph (default 150)
     --ports EP1,EP2.. drive external endpoints (HOST:PORT or PORT, e.g.
                       replicated routers) instead of an in-process
                       daemon: each client starts on one and, on a
                       transport error, rotates to the next and retries —
                       a request is dropped only once every endpoint has
                       failed it
     --router N        in-process fleet: N backends + router (default 0 = off)
     --hedge MS        hedging comparison: run the in-process fleet
                       twice — hot-shard hedging off, then on with this
                       delay — and print p50/p95/p99 side by side plus
                       the router's hedge-win rate

   Streaming load is perfbench's `stream` workload (perfbench/streaming.ml).

   Exits 1 on any dropped request. *)

module E = Flb_experiments
module Wire = Flb_service.Wire
module Server = Flb_service.Server
module Router = Flb_router.Router
module Backend = Flb_router.Backend
module Ring = Flb_router.Ring

let algo = "FLB"

let procs = 8

let flags =
  [ "--clients"; "--requests"; "--tasks"; "--ports"; "--router"; "--hedge" ]

let usage msg =
  Printf.eprintf "loadgen: %s\nflags (each takes a value): %s\n" msg
    (String.concat " " flags);
  exit 2

(* A flag loadgen does not know is an error, not a no-op: a script
   passing one (say --port) would otherwise silently load an in-process
   daemon instead of its endpoint. *)
let args =
  let rec pairs = function
    | flag :: value :: rest when List.mem flag flags -> (flag, value) :: pairs rest
    | [ flag ] when List.mem flag flags -> usage (flag ^ " needs a value")
    | arg :: _ -> usage ("unknown argument " ^ arg)
    | [] -> []
  in
  pairs (List.tl (Array.to_list Sys.argv))

let arg name parse default =
  match List.assoc_opt name args with
  | None -> default
  | Some v -> (
    match parse v with
    | Some x -> x
    | None -> usage (Printf.sprintf "%s: bad value %S" name v))

let parse_ports s =
  Some
    (List.filter_map
       (fun s ->
         match String.trim s with
         | "" -> None
         | s -> (
           match Backend.parse_addr s with
           | Ok hp -> Some hp
           | Error msg -> usage ("--ports: " ^ msg)))
       (String.split_on_char ',' s))

let start_daemon () = Server.start { Server.default_config with port = 0 }

(* The external endpoints, or else one in-process daemon. *)
let targets = function
  | [] ->
    let srv = start_daemon () in
    Printf.printf "loadgen: in-process daemon on port %d (%d domains, queue %d)\n%!"
      (Server.port srv) Server.default_config.domains
      Server.default_config.queue_capacity;
    (Some srv, [ ("127.0.0.1", Server.port srv) ])
  | endpoints ->
    Printf.printf "loadgen: %d external endpoints: %s\n%!" (List.length endpoints)
      (String.concat ", "
         (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) endpoints));
    (None, endpoints)

(* [n] in-process daemons behind one router; returns the router and the
   function that stops the whole fleet. *)
let start_fleet ?(policy = Router.default_config.policy)
    ?(hedge = Router.default_config.hedge) n =
  let servers = List.init n (fun _ -> start_daemon ()) in
  let router =
    Router.start
      {
        Router.default_config with
        port = 0;
        backends = List.map (fun s -> ("127.0.0.1", Server.port s)) servers;
        policy;
        hedge;
        health_period_s = 0.5;
      }
  in
  (router, fun () -> Router.stop router; List.iter Server.stop servers)

(* Everything one workload pass produces, so router mode can run two
   passes (hash, round-robin) and compare. *)
type phase = {
  label : string;
  wall : float;
  latency_ms : float array; (* one raw sample per request *)
  ok : int;
  cache_hits : int;
  overloaded : int;
  errors : int;
  dropped : int;
  per_shard : int array; (* ok responses per graph index *)
}

let run_phase ~label ~clients ~requests ~graphs ~endpoints =
  let ok = Atomic.make 0 and cache_hits = Atomic.make 0 in
  let overloaded = Atomic.make 0 and errors = Atomic.make 0 in
  let dropped = Atomic.make 0 in
  let per_shard = Array.init (Array.length graphs) (fun _ -> Atomic.make 0) in
  (* Each client thread writes its own row. *)
  let latency_ms = Array.make_matrix clients requests 0.0 in

  let client_thread id () =
    let eps = Array.of_list endpoints in
    let n_eps = Array.length eps in
    let conn = ref None in
    let cur = ref (id mod n_eps) in
    let drop_conn () =
      (match !conn with
      | Some c -> ( try Flb_service.Client.close c with _ -> ())
      | None -> ());
      conn := None;
      cur := (!cur + 1) mod n_eps
    in
    let get_conn () =
      match !conn with
      | Some c -> Some c
      | None -> (
        let host, port = eps.(!cur) in
        match Flb_service.Client.connect ~host ~port () with
        | c ->
          conn := Some c;
          Some c
        | exception _ -> None)
    in
    Fun.protect
      ~finally:(fun () ->
        match !conn with
        | Some c -> Flb_service.Client.close c
        | None -> ())
      (fun () ->
        for i = 0 to requests - 1 do
          let gi = (id + (i * clients)) mod Array.length graphs in
          let graph = graphs.(gi) in
          let t0 = Unix.gettimeofday () in
          (* A transport error rotates to the next endpoint and retries
             there — with replicated routers a killed replica costs a
             reconnect, not a request. Dropped only once every endpoint
             has failed it twice (the second pass gives a just-restarted
             endpoint a fresh connection instead of a stale pooled one). *)
          let rec attempt tries last_err =
            if tries >= 2 * n_eps then begin
              Printf.eprintf "client %d: request dropped after %d attempts: %s\n%!"
                id tries last_err;
              Atomic.incr dropped
            end
            else
              match get_conn () with
              | None ->
                drop_conn ();
                attempt (tries + 1) "connect failed"
              | Some client -> (
                match Flb_service.Client.schedule client ~graph ~algo ~procs with
                | Ok (Wire.Scheduled r) ->
                  Atomic.incr ok;
                  Atomic.incr per_shard.(gi);
                  if r.cache_hit then Atomic.incr cache_hits
                | Ok Wire.Overloaded -> Atomic.incr overloaded
                | Ok _ -> Atomic.incr errors
                | Error msg ->
                  drop_conn ();
                  attempt (tries + 1) msg)
          in
          attempt 0 "";
          latency_ms.(id).(i) <- (Unix.gettimeofday () -. t0) *. 1e3
        done)
  in

  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun id -> Thread.create (client_thread id) ()) in
  List.iter Thread.join threads;
  {
    label;
    wall = Unix.gettimeofday () -. t0;
    latency_ms = Array.concat (Array.to_list latency_ms);
    ok = Atomic.get ok;
    cache_hits = Atomic.get cache_hits;
    overloaded = Atomic.get overloaded;
    errors = Atomic.get errors;
    dropped = Atomic.get dropped;
    per_shard = Array.map Atomic.get per_shard;
  }

(* Exact quantile of the raw samples, interpolated as perfbench's
   Sample does. *)
let latency p q =
  if Array.length p.latency_ms = 0 then Float.nan
  else Flb_prelude.Stats.quantile p.latency_ms ~q

let hit_pct p =
  100.0 *. float_of_int p.cache_hits /. float_of_int (max 1 p.ok)

let print_phase ~total p =
  Printf.printf "\n--- %s summary ---\n" p.label;
  Printf.printf "requests:        %d (%d ok, %d overloaded, %d errors, %d dropped)\n"
    total p.ok p.overloaded p.errors p.dropped;
  Printf.printf "wall time:       %.2f s\n" p.wall;
  Printf.printf "throughput:      %.0f req/s\n" (float_of_int total /. p.wall);
  Printf.printf "latency p50/p95/p99: %.3f / %.3f / %.3f ms\n" (latency p 0.5)
    (latency p 0.95) (latency p 0.99);
  Printf.printf "client-seen cache hits: %d (%.1f%% of ok)\n" p.cache_hits
    (hit_pct p)

let () =
  let clients = arg "--clients" int_of_string_opt 4 in
  let tasks = arg "--tasks" int_of_string_opt 150 in
  let endpoints = arg "--ports" parse_ports [] in
  let router_backends = arg "--router" int_of_string_opt 0 in
  let hedge_ms = arg "--hedge" float_of_string_opt 0.0 in
  let requests = arg "--requests" int_of_string_opt 200 in
  (* The E4 suite: one instance per workload and CCR, serialized once.
     Clients cycle through the pool, so every graph repeats and the
     cache gets real hits. *)
  let graphs =
    List.concat_map
      (fun workload ->
        List.map
          (fun ccr ->
            Flb_taskgraph.Serial.to_string
              (E.Workload_suite.instance workload ~ccr ~seed:1))
          E.Workload_suite.paper_ccrs)
      (E.Workload_suite.fig4_suite ~tasks ())
  in
  let graphs = Array.of_list graphs in
  Printf.printf
    "loadgen: %d clients x %d requests, %s on P=%d, %d graphs (E4 suite, V ~ %d)\n%!"
    clients requests algo procs (Array.length graphs) tasks;
  let total = clients * requests in
  let run_fleet_phase ~label router =
    run_phase ~label ~clients ~requests ~graphs
      ~endpoints:[ ("127.0.0.1", Router.port router) ]
  in

  if hedge_ms > 0.0 then begin
    (* --- hedging comparison: same fleet, hedging off then on --- *)
    let n_backends = if router_backends > 0 then router_backends else 3 in
    let run_fleet hedge label =
      let router, stop = start_fleet ~hedge n_backends in
      Printf.printf "loadgen: %s — router on port %d, %d backends\n%!" label
        (Router.port router) n_backends;
      let phase = run_fleet_phase ~label router in
      let count name =
        Flb_obs.Metrics.(Counter.value (counter (Router.metrics router) name))
      in
      let hedges = count "router_hedge_total"
      and wins = count "router_hedge_wins_total" in
      stop ();
      (phase, hedges, wins)
    in
    let off_phase, _, _ = run_fleet Router.Hedge_off "hedging off" in
    let on_phase, hedges, wins =
      run_fleet
        (Router.Hedge_fixed_ms hedge_ms)
        (Printf.sprintf "hedging after %g ms" hedge_ms)
    in
    print_phase ~total off_phase;
    print_phase ~total on_phase;
    Printf.printf "\n--- hedging comparison (%d clients x %d requests) ---\n"
      clients requests;
    let row label p =
      Printf.printf "  %-24s p50 %8.3f  p95 %8.3f  p99 %8.3f ms\n" label
        (latency p 0.5) (latency p 0.95) (latency p 0.99)
    in
    row "hedging off:" off_phase;
    row (Printf.sprintf "hedging after %g ms:" hedge_ms) on_phase;
    Printf.printf "  hedges fired: %d, won: %d (win rate %.1f%%)\n" hedges wins
      (100.0 *. float_of_int wins /. float_of_int (max 1 hedges));
    if off_phase.dropped > 0 || on_phase.dropped > 0 then exit 1 else exit 0
  end;

  if router_backends > 0 then begin
    (* --- router mode: in-process fleet, hash vs round-robin --- *)
    let run_fleet policy label =
      let router, stop = start_fleet ~policy router_backends in
      Printf.printf
        "loadgen: %s router on port %d — %d backends %s, replication %d, \
         split factor %d\n%!"
        label (Router.port router) router_backends
        (String.concat "," (List.map Backend.id (Router.backends router)))
        Router.default_config.replication Router.default_config.split_factor;
      let phase = run_fleet_phase ~label router in
      (* Refresh Backend.hit_rate et al. over the wire before reading. *)
      ignore (Router.probe_backends router);
      let rows =
        List.map
          (fun b ->
            (Backend.id b, Backend.requests b, Backend.failures b,
             Backend.hit_rate b))
          (Router.backends router)
      in
      stop ();
      (phase, rows)
    in
    let hash_phase, hash_rows = run_fleet Router.Hash "hash policy" in
    let rr_phase, rr_rows = run_fleet Router.Round_robin "round-robin policy" in
    let print_backends policy rows =
      Printf.printf "per-backend (%s):\n" policy;
      List.iter
        (fun (id, reqs, fails, hr) ->
          Printf.printf
            "  %-21s %6d forwarded, %3d failures, backend hit rate %.1f%%\n" id
            reqs fails (100.0 *. hr))
        rows
    in

    print_phase ~total hash_phase;
    Printf.printf "per-shard throughput (hash policy):\n";
    let ring =
      Ring.create (List.map (fun (id, _, _, _) -> id) hash_rows)
    in
    Array.iteri
      (fun i n ->
        Printf.printf "  shard %s (graph %2d): %5d ok, %7.1f req/s, primary %s\n"
          (String.sub (Flb_service.Cache.text_digest graphs.(i)) 0 8)
          i n
          (float_of_int n /. hash_phase.wall)
          (Option.value ~default:"?"
             (Ring.primary ring
                (Router.shard_key ~graph:graphs.(i) ~algo ~procs))))
      hash_phase.per_shard;
    print_backends "hash policy" hash_rows;

    print_phase ~total rr_phase;
    print_backends "round-robin policy" rr_rows;

    Printf.printf "\n--- policy comparison (aggregate cache hit rate) ---\n";
    Printf.printf "  %-22s %6.1f%%  (%d of %d ok)\n" "consistent hashing:"
      (hit_pct hash_phase) hash_phase.cache_hits hash_phase.ok;
    Printf.printf "  %-22s %6.1f%%  (%d of %d ok)\n" "round-robin:"
      (hit_pct rr_phase) rr_phase.cache_hits rr_phase.ok;
    if hit_pct hash_phase > hit_pct rr_phase then
      Printf.printf "  hashing wins by %.1f points\n"
        (hit_pct hash_phase -. hit_pct rr_phase)
    else
      Printf.printf "  hashing does NOT win (replication %d vs %d backends?)\n"
        Router.default_config.replication router_backends;
    if hash_phase.dropped > 0 || rr_phase.dropped > 0 then exit 1
  end
  else begin
    (* --- single-daemon / external-endpoint mode --- *)
    let server, endpoints = targets endpoints in
    let phase =
      run_phase ~label:"load generator" ~clients ~requests ~graphs ~endpoints
    in
    Option.iter Server.stop server;
    print_phase ~total phase;
    if phase.dropped > 0 then exit 1
  end
