(* Load generator for the flb_service daemon and the flb_router tier.

   Drives N concurrent clients over the E4 (Fig. 4) workload suite —
   LU, Stencil, Laplace instances at the paper's CCRs — against either
   an in-process server (the default; started on an ephemeral port with
   a 2-domain pool and a capacity-bounded queue) or an external daemon
   given with --port. Each client thread owns one connection and issues
   its requests back to back; request latencies and the server-reported
   per-stage breakdown (queue wait / cache / schedule / execute, from
   the Scheduled response) are observed into Flb_obs.Metrics
   histograms, and the run ends with a throughput and p50/p95/p99
   summary — end-to-end and per stage — plus the cache hit rate.

   --router N starts an in-process fleet instead: N backend daemons
   plus a router in front, and runs the same workload twice — once with
   the consistent-hash policy, once round-robin over the same number of
   fresh backends — then prints the two aggregate cache hit rates side
   by side (hashing keeps each graph digest on its replica set, so with
   replication < N it must win). Router runs also print a per-shard
   table (each distinct graph digest: requests, throughput, primary
   backend) and a per-backend table (forwarded requests, failures,
   backend-reported hit rate).

   Flags:
     --clients N       concurrent client connections        (default 4)
     --requests N      requests per client                  (default 200)
     --domains N       worker domains per in-process server (default 2)
     --queue-cap N     pool queue bound                     (default 64)
     --cache-cap N     schedule cache entries               (default 256)
     --tasks N         approximate tasks per workload graph (default 150)
     --algo NAME       scheduling algorithm                 (default FLB)
     --procs P         processors per request               (default 8)
     --port P          drive an external daemon (or router) instead
     --host H          external daemon host                 (default 127.0.0.1)
     --ports P1,P2,..  drive several external endpoints (replicated
                       routers): each client starts on one and, on a
                       transport error, rotates to the next and retries —
                       a request is dropped only once every endpoint has
                       failed it
     --router N        in-process fleet: N backends + router (default 0 = off)
     --replication R   replicas per shard in router mode    (default 2)
     --split-factor S  saturated-shard multiplier           (default 2)
     --hedge MS        hedging comparison: run the in-process fleet
                       twice — hot-shard hedging off, then on with this
                       delay — and print p50/p95/p99 side by side plus
                       the hedge-win rate scraped from the router metrics
     --stream N        streaming mode: N concurrent wire streams
                       per workload (default 0 = off); each
                       stream ships its graph in --batches batches and
                       the run reports placement latency p50/p95/p99
                       and rounds/sec (see Stream_bench)
     --batches B       task batches per stream               (default 4)

   Exits non-zero on any dropped connection or transport error. *)

module E = Flb_experiments
module Metrics = Flb_obs.Metrics
module Wire = Flb_service.Wire
module Router = Flb_router.Router
module Backend = Flb_router.Backend
module Ring = Flb_router.Ring

let arg_int name default =
  let rec find = function
    | flag :: v :: _ when flag = name -> int_of_string v
    | _ :: rest -> find rest
    | [] -> default
  in
  find (Array.to_list Sys.argv)

let arg_string name default =
  let rec find = function
    | flag :: v :: _ when flag = name -> v
    | _ :: rest -> find rest
    | [] -> default
  in
  find (Array.to_list Sys.argv)

let arg_float name default =
  let rec find = function
    | flag :: v :: _ when flag = name -> float_of_string v
    | _ :: rest -> find rest
    | [] -> default
  in
  find (Array.to_list Sys.argv)

(* Pull one counter value out of a Prometheus exposition dump. *)
let scrape_counter text name =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name -> (
        match
          int_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        with
        | Some v -> v
        | None -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' text)

(* Everything one workload pass produces, so router mode can run two
   passes (hash, round-robin) and compare. *)
type phase = {
  label : string;
  wall : float;
  latency : Metrics.Histogram.t;
  queue_wait_h : Metrics.Histogram.t;
  cache_h : Metrics.Histogram.t;
  sched_h : Metrics.Histogram.t;
  exec_h : Metrics.Histogram.t;
  ok : int;
  cache_hits : int;
  overloaded : int;
  errors : int;
  dropped : int;
  per_shard : int array; (* ok responses per graph index *)
}

let run_phase ~label ~clients ~requests ~graphs ~algo ~procs ~endpoints =
  let registry = Metrics.create () in
  let latency =
    Metrics.histogram registry ~help:"client-observed request latency (s)"
      "client_request_seconds"
  in
  (* server-reported per-stage breakdown (Scheduled responses) *)
  let queue_wait_h =
    Metrics.histogram registry ~help:"server-reported queue wait (s)"
      "client_queue_wait_seconds"
  in
  let cache_h =
    Metrics.histogram registry ~help:"server-reported cache stage (s)"
      "client_cache_seconds"
  in
  let sched_h =
    Metrics.histogram registry ~help:"server-reported scheduling time (s)"
      "client_sched_seconds"
  in
  let exec_h =
    Metrics.histogram registry ~help:"server-reported compute job (s)"
      "client_exec_seconds"
  in
  let ok = Metrics.counter registry ~help:"Scheduled responses" "client_ok_total" in
  let cache_hits =
    Metrics.counter registry ~help:"Scheduled responses served from cache"
      "client_cache_hits_total"
  in
  let overloaded =
    Metrics.counter registry ~help:"Overloaded responses" "client_overloaded_total"
  in
  let errors =
    Metrics.counter registry ~help:"structured error responses"
      "client_errors_total"
  in
  let dropped =
    Metrics.counter registry ~help:"dropped connections / transport errors"
      "client_dropped_total"
  in
  let per_shard = Array.init (Array.length graphs) (fun _ -> Atomic.make 0) in

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
              Metrics.Counter.incr dropped
            end
            else
              match get_conn () with
              | None ->
                drop_conn ();
                attempt (tries + 1) "connect failed"
              | Some client -> (
                match Flb_service.Client.schedule client ~graph ~algo ~procs with
                | Ok (Wire.Scheduled r) ->
                  Metrics.Counter.incr ok;
                  Atomic.incr per_shard.(gi);
                  if r.cache_hit then Metrics.Counter.incr cache_hits;
                  let b = r.breakdown in
                  Metrics.Histogram.observe queue_wait_h b.Wire.queue_wait_s;
                  Metrics.Histogram.observe cache_h b.Wire.cache_s;
                  Metrics.Histogram.observe sched_h b.Wire.sched_s;
                  Metrics.Histogram.observe exec_h b.Wire.exec_s
                | Ok Wire.Overloaded -> Metrics.Counter.incr overloaded
                | Ok (Wire.Error _) -> Metrics.Counter.incr errors
                | Ok _ -> Metrics.Counter.incr errors
                | Error msg ->
                  drop_conn ();
                  attempt (tries + 1) msg)
          in
          attempt 0 "";
          Metrics.Histogram.observe latency (Unix.gettimeofday () -. t0)
        done)
  in

  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun id -> Thread.create (client_thread id) ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  {
    label;
    wall;
    latency;
    queue_wait_h;
    cache_h;
    sched_h;
    exec_h;
    ok = Metrics.Counter.value ok;
    cache_hits = Metrics.Counter.value cache_hits;
    overloaded = Metrics.Counter.value overloaded;
    errors = Metrics.Counter.value errors;
    dropped = Metrics.Counter.value dropped;
    per_shard = Array.map Atomic.get per_shard;
  }

let hit_pct p =
  100.0 *. float_of_int p.cache_hits /. float_of_int (max 1 p.ok)

let print_phase ~total p =
  Printf.printf "\n--- %s summary ---\n" p.label;
  Printf.printf "requests:        %d (%d ok, %d overloaded, %d errors, %d dropped)\n"
    total p.ok p.overloaded p.errors p.dropped;
  Printf.printf "wall time:       %.2f s\n" p.wall;
  Printf.printf "throughput:      %.0f req/s\n" (float_of_int total /. p.wall);
  let q h pr = Metrics.Histogram.quantile h ~q:pr *. 1e3 in
  Printf.printf "latency p50/p95/p99: %.3f / %.3f / %.3f ms\n" (q p.latency 0.5)
    (q p.latency 0.95) (q p.latency 0.99);
  let stage name h =
    if Metrics.Histogram.count h > 0 then
      Printf.printf "  %-11s p50/p95/p99: %.3f / %.3f / %.3f ms\n" name (q h 0.5)
        (q h 0.95) (q h 0.99)
  in
  Printf.printf "server-side breakdown of ok responses:\n";
  stage "queue wait" p.queue_wait_h;
  stage "cache" p.cache_h;
  stage "schedule" p.sched_h;
  stage "execute" p.exec_h;
  Printf.printf "client-seen cache hits: %d (%.1f%% of ok)\n" p.cache_hits
    (hit_pct p)

let () =
  let clients = arg_int "--clients" 4 in
  let requests = arg_int "--requests" 200 in
  let domains = arg_int "--domains" 2 in
  let queue_cap = arg_int "--queue-cap" 64 in
  let cache_cap = arg_int "--cache-cap" 256 in
  let tasks = arg_int "--tasks" 150 in
  let algo = arg_string "--algo" "FLB" in
  let procs = arg_int "--procs" 8 in
  let external_port = arg_int "--port" 0 in
  let host = arg_string "--host" "127.0.0.1" in
  let extra_endpoints =
    List.filter_map
      (fun s ->
        let s = String.trim s in
        if s = "" then None
        else
          match Backend.parse_addr s with
          | Ok hp -> Some hp
          | Error msg ->
            prerr_endline ("--ports: " ^ msg);
            exit 2)
      (String.split_on_char ',' (arg_string "--ports" ""))
  in
  let hedge_ms = arg_float "--hedge" 0.0 in
  let router_backends = arg_int "--router" 0 in
  let replication = arg_int "--replication" 2 in
  let split_factor = arg_int "--split-factor" 2 in
  let stream_clients = arg_int "--stream" 0 in
  let batches = arg_int "--batches" 4 in

  if stream_clients > 0 then begin
    (* --- streaming mode: incremental ingestion over the wire --- *)
    let repeats = arg_int "--requests" 8 in
    let server, port =
      if external_port > 0 then (None, external_port)
      else begin
        let srv =
          Flb_service.Server.start
            {
              Flb_service.Server.default_config with
              port = 0;
              domains;
              queue_capacity = queue_cap;
              cache_capacity = cache_cap;
            }
        in
        Printf.printf
          "loadgen: in-process daemon on port %d (%d domains, queue %d)\n%!"
          (Flb_service.Server.port srv)
          domains queue_cap;
        (Some srv, Flb_service.Server.port srv)
      end
    in
    Printf.printf
      "loadgen: streaming, %d clients x %d streams per workload, %s on P=%d, \
       %d batches per stream (V ~ %d)\n%!"
      stream_clients repeats algo procs batches tasks;
    let outcomes =
      List.map
        (fun workload ->
          let graph = E.Workload_suite.instance workload ~ccr:1.0 ~seed:1 in
          let o =
            Stream_bench.run ~clients:stream_clients ~repeats ~batches ~graph
              ~algo ~procs ~host ~port
          in
          Stream_bench.print_summary ~label:workload.E.Workload_suite.name o;
          o)
        (E.Workload_suite.fig4_suite ~tasks ())
    in
    (match server with
    | None -> ()
    | Some srv -> Flb_service.Server.stop srv);
    let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
    let wall =
      List.fold_left (fun acc o -> acc +. o.Stream_bench.wall) 0.0 outcomes
    in
    let rounds = total (fun o -> o.Stream_bench.rounds) in
    let dropped = total (fun o -> o.Stream_bench.dropped) in
    Printf.printf "\n--- streaming aggregate ---\n";
    Printf.printf "streams ok:  %d (%d dropped)\n"
      (total (fun o -> o.Stream_bench.streams_ok))
      dropped;
    Printf.printf "placements:  %d of %d expected\n"
      (total (fun o -> o.Stream_bench.placed))
      (total (fun o -> o.Stream_bench.expected));
    Printf.printf "rounds:      %d (%.1f rounds/s over %.2f s)\n" rounds
      (float_of_int rounds /. Float.max wall 1e-9)
      wall;
    exit (if dropped > 0 then 1 else 0)
  end;

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

  if hedge_ms > 0.0 then begin
    (* --- hedging comparison: same fleet, hedging off then on --- *)
    let n_backends = if router_backends > 0 then router_backends else 3 in
    let run_fleet hedge label =
      let servers =
        List.init n_backends (fun _ ->
            Flb_service.Server.start
              {
                Flb_service.Server.default_config with
                port = 0;
                domains;
                queue_capacity = queue_cap;
                cache_capacity = cache_cap;
              })
      in
      let backends =
        List.map (fun s -> ("127.0.0.1", Flb_service.Server.port s)) servers
      in
      let router =
        Router.start
          {
            Router.default_config with
            port = 0;
            backends;
            replication;
            split_factor;
            health_period_s = 0.5;
            hedge;
          }
      in
      Printf.printf "loadgen: %s — router on port %d, %d backends\n%!" label
        (Router.port router) n_backends;
      let phase =
        run_phase ~label ~clients ~requests ~graphs ~algo ~procs
          ~endpoints:[ ("127.0.0.1", Router.port router) ]
      in
      let text = Metrics.to_prometheus (Router.metrics router) in
      Router.stop router;
      List.iter Flb_service.Server.stop servers;
      (phase, scrape_counter text "router_hedge_total",
       scrape_counter text "router_hedge_wins")
    in
    let off_phase, _, _ = run_fleet Router.Hedge_off "hedging off" in
    let on_phase, hedges, wins =
      run_fleet
        (Router.Hedge_fixed_ms hedge_ms)
        (Printf.sprintf "hedging after %g ms" hedge_ms)
    in
    print_phase ~total off_phase;
    print_phase ~total on_phase;
    let q p pr = Metrics.Histogram.quantile p.latency ~q:pr *. 1e3 in
    Printf.printf "\n--- hedging comparison (%d clients x %d requests) ---\n"
      clients requests;
    Printf.printf "  %-24s p50 %8.3f  p95 %8.3f  p99 %8.3f ms\n" "hedging off:"
      (q off_phase 0.5) (q off_phase 0.95) (q off_phase 0.99);
    Printf.printf "  %-24s p50 %8.3f  p95 %8.3f  p99 %8.3f ms\n"
      (Printf.sprintf "hedging after %g ms:" hedge_ms)
      (q on_phase 0.5) (q on_phase 0.95) (q on_phase 0.99);
    Printf.printf "  hedges fired: %d, won: %d (win rate %.1f%%)\n" hedges wins
      (100.0 *. float_of_int wins /. float_of_int (max 1 hedges));
    if off_phase.dropped > 0 || on_phase.dropped > 0 then exit 1 else exit 0
  end;

  if router_backends > 0 then begin
    (* --- router mode: in-process fleet, hash vs round-robin --- *)
    let run_fleet policy label =
      let servers =
        List.init router_backends (fun _ ->
            Flb_service.Server.start
              {
                Flb_service.Server.default_config with
                port = 0;
                domains;
                queue_capacity = queue_cap;
                cache_capacity = cache_cap;
              })
      in
      let backends =
        List.map (fun s -> ("127.0.0.1", Flb_service.Server.port s)) servers
      in
      let router =
        Router.start
          {
            Router.default_config with
            port = 0;
            backends;
            replication;
            split_factor;
            policy;
            health_period_s = 0.5;
          }
      in
      Printf.printf
        "loadgen: %s router on port %d — %d backends %s, replication %d, \
         split factor %d\n%!"
        label (Router.port router) router_backends
        (String.concat "," (List.map (fun (_, p) -> string_of_int p) backends))
        replication split_factor;
      let phase =
        run_phase ~label ~clients ~requests ~graphs ~algo ~procs
          ~endpoints:[ ("127.0.0.1", Router.port router) ]
      in
      (* Refresh Backend.hit_rate et al. over the wire before reading. *)
      ignore (Router.probe_backends router);
      let rows =
        List.map
          (fun b ->
            (Backend.id b, Backend.requests b, Backend.failures b,
             Backend.hit_rate b))
          (Router.backends router)
      in
      Router.stop router;
      List.iter Flb_service.Server.stop servers;
      (phase, rows)
    in
    let hash_phase, hash_rows = run_fleet Router.Hash "hash policy" in
    let rr_phase, rr_rows = run_fleet Router.Round_robin "round-robin policy" in

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
    Printf.printf "per-backend (hash policy):\n";
    List.iter
      (fun (id, reqs, fails, hr) ->
        Printf.printf
          "  %-21s %6d forwarded, %3d failures, backend hit rate %.1f%%\n" id
          reqs fails (100.0 *. hr))
      hash_rows;

    print_phase ~total rr_phase;
    Printf.printf "per-backend (round-robin policy):\n";
    List.iter
      (fun (id, reqs, fails, hr) ->
        Printf.printf
          "  %-21s %6d forwarded, %3d failures, backend hit rate %.1f%%\n" id
          reqs fails (100.0 *. hr))
      rr_rows;

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
        replication router_backends;
    if hash_phase.dropped > 0 || rr_phase.dropped > 0 then exit 1
  end
  else begin
    (* --- single-daemon / external-endpoint mode --- *)
    let server, endpoints =
      if extra_endpoints <> [] then begin
        Printf.printf "loadgen: %d external endpoints: %s\n%!"
          (List.length extra_endpoints)
          (String.concat ", "
             (List.map
                (fun (h, p) -> Printf.sprintf "%s:%d" h p)
                extra_endpoints));
        (None, extra_endpoints)
      end
      else if external_port > 0 then (None, [ (host, external_port) ])
      else begin
        let srv =
          Flb_service.Server.start
            {
              Flb_service.Server.default_config with
              port = 0;
              domains;
              queue_capacity = queue_cap;
              cache_capacity = cache_cap;
            }
        in
        Printf.printf
          "loadgen: in-process daemon on port %d (%d domains, queue %d)\n%!"
          (Flb_service.Server.port srv)
          domains queue_cap;
        (Some srv, [ ("127.0.0.1", Flb_service.Server.port srv) ])
      end
    in
    let phase =
      run_phase ~label:"load generator" ~clients ~requests ~graphs ~algo ~procs
        ~endpoints
    in
    let server_metrics =
      match server with
      | None -> None
      | Some srv ->
        let text = Metrics.to_prometheus (Flb_service.Server.metrics srv) in
        Flb_service.Server.stop srv;
        Some text
    in
    print_phase ~total phase;
    (match server_metrics with
    | None -> ()
    | Some text ->
      print_newline ();
      print_string "--- server metrics (Prometheus exposition) ---\n";
      print_string text);
    if phase.dropped > 0 then exit 1
  end
