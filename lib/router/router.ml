module Json = Flb_prelude.Json
module Wire = Flb_service.Wire
module Cache = Flb_service.Cache
module Client = Flb_service.Client
module Listener = Flb_service.Listener
module Serial = Flb_taskgraph.Serial
module Metrics = Flb_obs.Metrics
module Trace = Flb_obs.Trace

type policy = Hash | Round_robin

type hedge = Hedge_off | Hedge_fixed_ms of float

type config = {
  host : string;
  port : int;
  backends : (string * int) list;
  peers : (string * int) list;
  replication : int;
  split_factor : int;
  vnodes : int;
  policy : policy;
  connect_timeout_s : float;
  call_timeout_s : float;
  health_period_s : float;
  gossip_period_s : float;
  fail_threshold : int;
  hedge : hedge;
  warm_keys : int;
  tracer : Trace.t;
  max_frame : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7450;
    backends = [];
    peers = [];
    replication = 2;
    split_factor = 2;
    vnodes = 64;
    policy = Hash;
    connect_timeout_s = 1.0;
    call_timeout_s = 10.0;
    health_period_s = 2.0;
    gossip_period_s = 1.0;
    fail_threshold = 2;
    hedge = Hedge_off;
    warm_keys = 4;
    tracer = Trace.null;
    max_frame = Wire.default_max_frame;
  }

type t = {
  config : config;
  listener : Listener.t;
  started_at : float;
  self_id : string; (* the address gossiped to peers as "who said so" *)
  registry : Metrics.t;
  backends : Backend.t array;
  balancer : Balancer.t;
  gossip : Gossip.t;
  rr : int Atomic.t; (* Round_robin rotation cursor *)
  mutable health_thread : Thread.t option;
  mutable gossip_thread : Thread.t option;
  (* Bounded shard-key -> Schedule payload store, so a joining or newly
     split replica can be warmed by replaying real requests. The router
     only ever sees shard keys otherwise — a key alone cannot
     reconstruct the graph text. Guarded by [warm_lock], which also
     covers [last_splits]. *)
  warm_store : (string, string * string * int) Hashtbl.t;
  warm_lock : Mutex.t;
  mutable last_splits : string list; (* split set at the last warm check *)
  requests : Metrics.Counter.t;
  scheduled : Metrics.Counter.t;
  upstream_hits : Metrics.Counter.t;
  failovers : Metrics.Counter.t;
  overloaded : Metrics.Counter.t;
  errors : Metrics.Counter.t;
  connections : Metrics.Counter.t;
  graph_parses : Metrics.Counter.t;
  hedge_total : Metrics.Counter.t;
  hedge_wins : Metrics.Counter.t;
  gossip_rounds : Metrics.Counter.t;
  gossip_merges : Metrics.Counter.t;
  drains : Metrics.Counter.t;
  warms : Metrics.Counter.t;
  backends_up_g : Metrics.Gauge.t;
  backends_draining_g : Metrics.Gauge.t;
  splits_g : Metrics.Gauge.t;
  latency : Metrics.Histogram.t;
  per_backend : (string * Metrics.Counter.t * Metrics.Counter.t) array;
      (* (id, forwarded, failures) in [backends] order *)
}

let now () = Unix.gettimeofday ()

let port t = Listener.port t.listener
let metrics t = t.registry
let backends t = Array.to_list t.backends
let balancer t = t.balancer
let gossip t = t.gossip

let stopping t = Listener.stopping t.listener

(* --- shard routing --- *)

(* The shard key is the same digest × algorithm × P triple the backend
   cache keys on (minus the dead-proc mask, which Schedule requests
   cannot carry), with the digest from the same function, so "same
   shard" and "same cache entry" coincide for any text. *)
let shard_key ~graph ~algo ~procs =
  Printf.sprintf "%s/%s/%d" (Cache.text_digest graph)
    (String.lowercase_ascii algo) procs

let rotation t =
  let n = Array.length t.backends in
  let start = Atomic.fetch_and_add t.rr 1 in
  let order = List.init n (fun i -> t.backends.((start + i) mod n)) in
  match List.filter (fun b -> Backend.status b = Backend.Up) order with
  | [] -> order (* everything looks down; let the call attempts decide *)
  | up -> up

let candidates t key ~hot =
  match t.config.policy with
  | Hash -> Balancer.candidates t.balancer key ~hot
  | Round_robin -> rotation t

let backend_counters t b =
  let id = Backend.id b in
  let found = ref None in
  Array.iter
    (fun ((bid, _, _) as row) -> if bid = id then found := Some row)
    t.per_backend;
  !found

(* The first backend answer along [cands], or [None] once every
   candidate (if any) has failed in transport. *)
let attempt_chain t ~trace_id request cands =
  let rec attempt tried = function
    | [] -> None
    | b :: rest -> (
      match
        Backend.call ~trace_id ~connect_timeout_s:t.config.connect_timeout_s
          ~io_timeout_s:t.config.call_timeout_s b request
      with
      | Ok resp ->
        (match backend_counters t b with
        | Some (_, fwd, _) -> Metrics.Counter.incr fwd
        | None -> ());
        Some resp
      | Error _ ->
        (match backend_counters t b with
        | Some (_, _, fl) -> Metrics.Counter.incr fl
        | None -> ());
        if tried > 0 || rest <> [] then Metrics.Counter.incr t.failovers;
        attempt (tried + 1) rest)
  in
  attempt 0 cands

let hedge_delay_s t =
  match t.config.hedge with
  | Hedge_off -> None
  | Hedge_fixed_ms ms -> Some (ms /. 1000.0)

(* First-good-answer-wins race cell for hedged requests. *)
type hedge_cell = {
  hlock : Mutex.t;
  hcond : Condition.t;
  mutable best : Wire.response option; (* first non-Overloaded answer *)
  mutable fallback : Wire.response option; (* a backend answer, if none good *)
  mutable winner_secondary : bool;
  mutable pending : int; (* chains launched and not yet finished *)
  mutable launched_secondary : bool;
}

let hedge_good = function Some Wire.Overloaded | None -> false | Some _ -> true

(* Hedged forward: run the normal failover chain; if it has not
   answered after [delay], launch a second chain starting from the next
   replica and take whichever answers first. The loser is abandoned —
   its thread finishes the call into the connection pool and its result
   is discarded. *)
let forward_hedged t ~trace_id ~delay request ~first ~others =
  let cell =
    {
      hlock = Mutex.create ();
      hcond = Condition.create ();
      best = None;
      fallback = None;
      winner_secondary = false;
      pending = 1;
      launched_secondary = false;
    }
  in
  let record ~secondary resp =
    Mutex.lock cell.hlock;
    cell.pending <- cell.pending - 1;
    if hedge_good resp && cell.best = None then begin
      cell.best <- resp;
      cell.winner_secondary <- secondary
    end
    else if cell.fallback = None then cell.fallback <- resp;
    Condition.broadcast cell.hcond;
    Mutex.unlock cell.hlock
  in
  let spawn ~secondary cands =
    ignore
      (Thread.create
         (fun () ->
           let r =
             try attempt_chain t ~trace_id request cands with _ -> None
           in
           record ~secondary r)
         ())
  in
  let ts0 = Trace.now t.config.tracer in
  let t0 = now () in
  spawn ~secondary:false (first :: others);
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf delay;
         Mutex.lock cell.hlock;
         let fire = cell.best = None && cell.pending > 0 in
         if fire then begin
           cell.pending <- cell.pending + 1;
           cell.launched_secondary <- true
         end;
         Mutex.unlock cell.hlock;
         if fire then begin
           Metrics.Counter.incr t.hedge_total;
           spawn ~secondary:true (others @ [ first ])
         end)
       ());
  Mutex.lock cell.hlock;
  while cell.best = None && cell.pending > 0 do
    Condition.wait cell.hcond cell.hlock
  done;
  let resp = match cell.best with Some _ as r -> r | None -> cell.fallback in
  let win = cell.winner_secondary in
  let hedged = cell.launched_secondary in
  Mutex.unlock cell.hlock;
  if win then Metrics.Counter.incr t.hedge_wins;
  if hedged && Trace.enabled t.config.tracer then
    Trace.add_span t.config.tracer ~track:"router-hedge"
      ~name:(if win then "hedge-win" else "hedge-lose")
      ~ts:ts0 ~dur:(now () -. t0)
      ~args:[ ("delay_ms", delay *. 1000.0); ("win", if win then 1.0 else 0.0) ];
  resp

(* A backend's answer, or [None] when every candidate failed. *)
let forward t ~trace_id ~key ~hot request =
  let cands = candidates t key ~hot in
  (* Only hot shards hedge: cold traffic is deliberately routed
     primary-first to warm one cache, and a duplicate would just smear
     the shard across replicas. *)
  match (cands, if hot then hedge_delay_s t else None) with
  | ([] | [ _ ]), _ | _, None -> attempt_chain t ~trace_id request cands
  | first :: others, Some delay ->
    forward_hedged t ~trace_id ~delay request ~first ~others

(* --- gossip & cache warming --- *)

let peer_status_of = function
  | Backend.Up -> Wire.Peer_up
  | Backend.Draining -> Wire.Peer_draining
  | Backend.Down -> Wire.Peer_down

let backend_status_of = function
  | Wire.Peer_up -> Backend.Up
  | Wire.Peer_draining -> Backend.Draining
  | Wire.Peer_down -> Backend.Down

let backend_by_id t id =
  let found = ref None in
  Array.iter (fun b -> if Backend.id b = id then found := Some b) t.backends;
  !found

let warm_capacity = 128

let store_warm t key payload =
  Mutex.lock t.warm_lock;
  (if Hashtbl.mem t.warm_store key then Hashtbl.replace t.warm_store key payload
   else begin
     if Hashtbl.length t.warm_store >= warm_capacity then (
       (* Full: evict an arbitrary entry. A genuinely hot key re-enters
          on its next request, so warming only ever misses cold keys. *)
       match Hashtbl.fold (fun k _ _ -> Some k) t.warm_store None with
       | Some victim -> Hashtbl.remove t.warm_store victim
       | None -> ());
     Hashtbl.add t.warm_store key payload
   end);
  Mutex.unlock t.warm_lock

let warm_payload t key =
  Mutex.lock t.warm_lock;
  let p = Hashtbl.find_opt t.warm_store key in
  Mutex.unlock t.warm_lock;
  p

(* Replay one shard's Schedule to one backend, off-thread: warming must
   never add latency to the request that triggered it. The replay is an
   ordinary Schedule, so the newcomer computes and caches it exactly as
   if a client had asked. *)
let replay t b key =
  match warm_payload t key with
  | None -> ()
  | Some (graph, algo, procs) ->
    Metrics.Counter.incr t.warms;
    ignore
      (Thread.create
         (fun () ->
           ignore
             (Backend.call ~connect_timeout_s:t.config.connect_timeout_s
                ~io_timeout_s:t.config.call_timeout_s b
                (Wire.Schedule { graph; algo; procs })))
         ())

let hottest_keys t =
  let rec take n = function
    | [] -> []
    | x :: r -> if n <= 0 then [] else x :: take (n - 1) r
  in
  take t.config.warm_keys (List.map fst (Balancer.hot_keys t.balancer))

(* A backend newly (re)joined: replay the hottest shards it serves. *)
let warm_backend t b =
  List.iter
    (fun key ->
      if List.mem (Backend.id b) (Balancer.replica_ids t.balancer key) then
        replay t b key)
    (hottest_keys t)

(* A shard newly split: replay it to the members the split added. *)
let warm_split t key =
  List.iter
    (fun id ->
      match Balancer.backend_of_id t.balancer id with
      | Some b when Backend.status b <> Backend.Down -> replay t b key
      | _ -> ())
    (Balancer.split_extras t.balancer key)

(* Push local first-hand knowledge into the gossip state; status
   changes bump the backend's epoch and outvote stale hearsay. *)
let sync_gossip_out t =
  Array.iter
    (fun b ->
      ignore
        (Gossip.observe t.gossip ~backend:(Backend.id b)
           (peer_status_of (Backend.status b))))
    t.backends

let apply_status_changes t changed =
  List.iter
    (fun (id, status) ->
      match backend_by_id t id with
      | None -> () (* a peer knows backends we do not serve; ignore *)
      | Some b ->
        let next = backend_status_of status in
        let prev = Backend.status b in
        if prev <> next then begin
          Backend.set_status b next;
          (* A Down backend a peer says is back gets its cache warmed
             before traffic lands on it again. *)
          if prev = Backend.Down && next = Backend.Up then warm_backend t b
        end)
    changed

(* Impose the merged fleet-wide split set on the balancer and warm the
   members any newly appearing split adds. *)
let refresh_splits t =
  let merged = Gossip.splits t.gossip in
  Balancer.set_splits t.balancer merged;
  Mutex.lock t.warm_lock;
  let prev = t.last_splits in
  t.last_splits <- merged;
  Mutex.unlock t.warm_lock;
  List.iter (fun key -> if not (List.mem key prev) then warm_split t key) merged

let merge_digest t digest =
  let changed = Gossip.merge t.gossip digest in
  Metrics.Counter.add t.gossip_merges (List.length changed);
  apply_status_changes t changed;
  refresh_splits t

(* Every candidate failed, so no backend judged the graph. Parse it
   here — the router's only parse — so a malformed graph still gets a
   structured [Invalid_graph]; a well-formed one is shed. *)
let unanswered t graph =
  Metrics.Counter.incr t.graph_parses;
  match Serial.of_string graph with
  | exception Serial.Parse_error { line; message } ->
    Wire.Error
      {
        code = Wire.Invalid_graph;
        message = Printf.sprintf "graph line %d: %s" line message;
      }
  | _ -> Wire.Overloaded

let handle_schedule t ~trace_id ~graph ~algo ~procs =
  let started = now () in
  let key = shard_key ~graph ~algo ~procs in
  let prior = Balancer.note t.balancer key in
  let resp =
    match
      forward t ~trace_id ~key ~hot:(prior > 0)
        (Wire.Schedule { graph; algo; procs })
    with
    | Some resp -> resp
    | None -> unanswered t graph
  in
  (match resp with
  | Wire.Scheduled { cache_hit; _ } ->
    (* Only a graph some backend scheduled is worth replaying. *)
    store_warm t key (graph, algo, procs);
    Metrics.Counter.incr t.scheduled;
    if cache_hit then Metrics.Counter.incr t.upstream_hits
  | Wire.Overloaded -> Metrics.Counter.incr t.overloaded
  | Wire.Error _ -> Metrics.Counter.incr t.errors
  | _ -> ());
  Metrics.Histogram.observe t.latency (now () -. started);
  resp

(* --- local answers --- *)

let up_count t =
  Array.fold_left
    (fun acc b -> if Backend.status b = Backend.Up then acc + 1 else acc)
    0 t.backends

let draining_count t =
  Array.fold_left
    (fun acc b -> if Backend.status b = Backend.Draining then acc + 1 else acc)
    0 t.backends

let refresh_gauges t =
  Metrics.Gauge.set t.backends_up_g (float_of_int (up_count t));
  Metrics.Gauge.set t.backends_draining_g (float_of_int (draining_count t));
  Metrics.Gauge.set t.splits_g (float_of_int (Balancer.splits t.balancer))

let stats_json t =
  let backend bk =
    Json.Obj
      [
        ("id", Json.Str (Backend.id bk));
        ("status", Json.Str (Backend.status_name (Backend.status bk)));
        ("inflight", Json.int (Backend.inflight bk));
        ("pending", Json.int (Backend.pending bk));
        ("hit_rate", Json.Num (Backend.hit_rate bk));
        ("requests", Json.int (Backend.requests bk));
        ("failures", Json.int (Backend.failures bk));
        ("last_error", Json.Str (Backend.last_error bk));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("role", Json.Str "router");
         ("uptime_s", Json.Num (now () -. t.started_at));
         ( "policy",
           Json.Str (match t.config.policy with Hash -> "hash" | Round_robin -> "round-robin") );
         ("replication", Json.int t.config.replication);
         ("split_factor", Json.int t.config.split_factor);
         ("vnodes", Json.int t.config.vnodes);
         ("shards_tracked", Json.int (Balancer.shards_tracked t.balancer));
         ("splits", Json.int (Balancer.splits t.balancer));
         ("peers", Json.int (List.length t.config.peers));
         ("gossip", Gossip.json t.gossip);
         ("backends", Json.Arr (Array.to_list (Array.map backend t.backends)));
         ("metrics", Metrics.json t.registry);
       ])

let stats_text t fmt =
  refresh_gauges t;
  match fmt with
  | Wire.Stats_prometheus -> Metrics.to_prometheus t.registry
  | Wire.Stats_json -> stats_json t

let load_answer t =
  let scheduled = Metrics.Counter.value t.scheduled in
  let hits = Metrics.Counter.value t.upstream_hits in
  Wire.Load
    {
      Wire.uptime_s = now () -. t.started_at;
      (* Fleet-wide queue estimate: calls this router holds open plus
         what each backend last reported queued. *)
      pending =
        Array.fold_left
          (fun acc b -> acc + Backend.inflight b + Backend.pending b)
          0 t.backends;
      cache_entries = 0;
      cache_hit_rate =
        (if scheduled = 0 then 0.0
         else float_of_int hits /. float_of_int scheduled);
      scheduled_total = scheduled;
      connections = List.length (Listener.connections t.listener);
    }

let request_stop t = Listener.request_stop t.listener

(* --- peer exchange --- *)

(* One symmetric exchange: send our digest, merge the peer's post-merge
   answer back. Connections are per-exchange — gossip runs once a
   period, so pooling would buy nothing. An unreachable peer is simply
   skipped; anti-entropy tolerates arbitrary missed rounds. *)
let gossip_exchange t (host, port) =
  match
    Client.connect ~host ~connect_timeout_s:t.config.connect_timeout_s
      ~io_timeout_s:t.config.call_timeout_s ~port ()
  with
  | exception _ -> ()
  | c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        sync_gossip_out t;
        match Client.gossip c ~from:t.self_id ~digest:(Gossip.digest t.gossip) with
        | Ok peer_digest ->
          Metrics.Counter.incr t.gossip_rounds;
          merge_digest t peer_digest
        | Error _ -> ())

let gossip_now t = List.iter (gossip_exchange t) t.config.peers

(* Returns [false] when the connection should stop being served. *)
let handle_request t ~respond ~trace_id = function
  | Wire.Schedule { graph; algo; procs } ->
    respond ~trace_id (handle_schedule t ~trace_id ~graph ~algo ~procs);
    true
  | Wire.Get_stats fmt ->
    respond ~trace_id (Wire.Stats_text (stats_text t fmt));
    true
  | Wire.Get_load ->
    respond ~trace_id (load_answer t);
    true
  | Wire.Ping ->
    respond ~trace_id Wire.Pong;
    true
  | Wire.Shutdown ->
    respond ~trace_id Wire.Shutting_down;
    request_stop t;
    false
  | Wire.Gossip { from = _; digest } ->
    (* Inbound half of a symmetric exchange: merge theirs, answer with
       our post-merge view (refreshed with local observations first, so
       the answer carries our first-hand knowledge too). *)
    Metrics.Counter.incr t.gossip_rounds;
    merge_digest t digest;
    sync_gossip_out t;
    respond ~trace_id (Wire.Gossip_ack { digest = Gossip.digest t.gossip });
    true
  | Wire.Drain { backend } -> (
    match backend_by_id t backend with
    | None ->
      Metrics.Counter.incr t.errors;
      respond ~trace_id
        (Wire.Error
           {
             code = Wire.Bad_request;
             message = Printf.sprintf "unknown backend %S" backend;
           });
      true
    | Some b ->
      Metrics.Counter.incr t.drains;
      (* Order matters: stop routing new shards here first, then tell
         the daemon to finish and exit, then rush the news to peers
         ahead of the next gossip period. *)
      Backend.set_status b Backend.Draining;
      ignore (Gossip.observe t.gossip ~backend:(Backend.id b) Wire.Peer_draining);
      ignore
        (Backend.call ~connect_timeout_s:t.config.connect_timeout_s
           ~io_timeout_s:t.config.call_timeout_s b
           (Wire.Drain { backend = "" }));
      ignore (Thread.create (fun () -> try gossip_now t with _ -> ()) ());
      refresh_gauges t;
      respond ~trace_id (Wire.Drain_ack { backend });
      true)
  | Wire.Open_stream _ | Wire.Add_tasks _ | Wire.Add_edges _ | Wire.Seal _
  | Wire.Poll_stream _ ->
    (* A streaming session is stateful on one daemon's scheduler loop;
       hashing individual messages across the fleet would scatter it.
       Until sessions get sticky routing, point clients at a backend. *)
    respond ~trace_id
      (Wire.Error
         {
           code = Wire.Bad_request;
           message =
             "streaming is not routed; open the stream against a backend \
              daemon directly";
         });
    true

(* --- health and lifecycle --- *)

let probe_backends t =
  let up = ref 0 in
  Array.iter
    (fun b ->
      let prev = Backend.status b in
      if
        Backend.probe ~connect_timeout_s:t.config.connect_timeout_s
          ~io_timeout_s:t.config.call_timeout_s b
      then incr up;
      (* A probe just revived this backend: warm its cache with the
         hottest shards before client traffic lands on it again. *)
      if prev = Backend.Down && Backend.status b = Backend.Up then
        warm_backend t b)
    t.backends;
  refresh_gauges t;
  !up

(* One full health pass: probe, recompute the local split set, record
   both in the gossip state, and re-impose the merged fleet view.
   Exposed (as [health_pass] via probe_backends + tick in tests) so
   [health_period_s = 0.] setups stay deterministic. *)
let health_pass t =
  (try ignore (probe_backends t) with _ -> ());
  Balancer.tick t.balancer;
  sync_gossip_out t;
  Gossip.observe_splits t.gossip (Balancer.split_keys t.balancer);
  refresh_splits t

let sleep_slices t period =
  let slept = ref 0.0 in
  while (not (stopping t)) && !slept < period do
    (* Sleep in short slices so shutdown is not held up by the period. *)
    let s = Float.min 0.1 (period -. !slept) in
    Unix.sleepf s;
    slept := !slept +. s
  done

let health_loop t () =
  while not (stopping t) do
    sleep_slices t t.config.health_period_s;
    if not (stopping t) then health_pass t
  done

let gossip_loop t () =
  while not (stopping t) do
    sleep_slices t t.config.gossip_period_s;
    if not (stopping t) then (try gossip_now t with _ -> ())
  done

let start ?metrics (config : config) =
  if config.backends = [] then
    invalid_arg "Router.start: at least one backend is required";
  let registry = match metrics with Some r -> r | None -> Metrics.create () in
  let backends =
    Array.of_list
      (List.map
         (fun (host, port) ->
           Backend.create ~host ~fail_threshold:config.fail_threshold ~port ())
         config.backends)
  in
  let ring =
    Ring.create ~vnodes:config.vnodes
      (Array.to_list (Array.map Backend.id backends))
  in
  let balancer =
    Balancer.create ~ring ~replication:config.replication
      ~split_factor:config.split_factor
      ~backends:(Array.to_list backends)
  in
  let listener = Listener.bind ~host:config.host ~port:config.port in
  let t =
    {
      config;
      listener;
      started_at = now ();
      self_id = Printf.sprintf "%s:%d" config.host (Listener.port listener);
      registry;
      backends;
      balancer;
      gossip =
        Gossip.create
          ~backends:(Array.to_list (Array.map Backend.id backends));
      rr = Atomic.make 0;
      health_thread = None;
      gossip_thread = None;
      warm_store = Hashtbl.create 64;
      warm_lock = Mutex.create ();
      last_splits = [];
      requests =
        Metrics.counter registry ~help:"requests received by the router"
          "router_requests_total";
      scheduled =
        Metrics.counter registry ~help:"schedules answered via a backend"
          "router_scheduled_total";
      upstream_hits =
        Metrics.counter registry
          ~help:"scheduled responses served from a backend cache"
          "router_upstream_cache_hits_total";
      failovers =
        Metrics.counter registry
          ~help:"requests re-enqueued on another replica after a transport failure"
          "router_failovers_total";
      overloaded =
        Metrics.counter registry
          ~help:"requests shed after every candidate replica failed"
          "router_overloaded_total";
      errors =
        Metrics.counter registry ~help:"structured error responses"
          "router_errors_total";
      connections =
        Metrics.counter registry ~help:"client connections accepted"
          "router_connections_total";
      graph_parses =
        Metrics.counter registry
          ~help:
            "Schedule graphs parsed by the router (only once every candidate \
             replica has failed)"
          "router_graph_parses_total";
      hedge_total =
        Metrics.counter registry
          ~help:"hedged requests (second replica raced after the delay)"
          "router_hedge_total";
      hedge_wins =
        Metrics.counter registry
          ~help:"hedged requests won by the second replica"
          "router_hedge_wins_total";
      gossip_rounds =
        Metrics.counter registry
          ~help:"gossip exchanges completed (either direction)"
          "router_gossip_rounds_total";
      gossip_merges =
        Metrics.counter registry
          ~help:"backend status changes applied from peer digests"
          "router_gossip_merges_total";
      drains =
        Metrics.counter registry ~help:"drain requests accepted"
          "router_drains_total";
      warms =
        Metrics.counter registry
          ~help:"cache-warming schedules replayed to joining or split replicas"
          "router_cache_warms_total";
      backends_up_g =
        Metrics.gauge registry ~help:"backends currently marked up"
          "router_backends_up";
      backends_draining_g =
        Metrics.gauge registry ~help:"backends currently draining"
          "router_backends_draining";
      splits_g =
        Metrics.gauge registry ~help:"shards currently split wide"
          "router_shards_split";
      latency =
        Metrics.histogram registry
          ~help:"schedule latency through the router (seconds)"
          "router_request_seconds";
      per_backend =
        Array.map
          (fun b ->
            let id = Backend.id b in
            let safe = Metrics.sanitize id in
            ( id,
              Metrics.counter registry
                ~help:(Printf.sprintf "requests forwarded to %s" id)
                (Printf.sprintf "router_backend_%s_requests_total" safe),
              Metrics.counter registry
                ~help:(Printf.sprintf "transport failures against %s" id)
                (Printf.sprintf "router_backend_%s_failures_total" safe) ))
          backends;
    }
  in
  Listener.serve listener ~max_frame:config.max_frame ~requests:t.requests
    ~errors:t.errors ~connections:t.connections
    ~on_stop:(fun () -> Array.iter Backend.close t.backends)
    (handle_request t);
  if config.health_period_s > 0.0 then
    t.health_thread <- Some (Thread.create (health_loop t) ());
  if config.peers <> [] && config.gossip_period_s > 0.0 then
    t.gossip_thread <- Some (Thread.create (gossip_loop t) ());
  t

let wait t =
  Listener.wait t.listener;
  List.iter
    (Option.iter (fun th -> try Thread.join th with _ -> ()))
    [ t.health_thread; t.gossip_thread ]

let stop t =
  request_stop t;
  wait t
