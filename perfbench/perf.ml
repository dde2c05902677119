(* The serving benchmark. One run = one workload, one seed:

     perf.exe --workload router-hit|direct-miss|stream|execute
              --seed N --seconds S --trace 0|1 --flb PATH --out DIR
              [--tiny] [--corrupt-reference] [--setups K]

   The system under test runs as real `flb serve` / `flb route`
   processes (PATH is the built flb_cli executable), started fresh on
   ephemeral ports and stopped at the end of the run. Inputs come only
   from the seed. The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end
   metrics untraced (--trace 0), the per-layer metrics traced
   (--trace 1). perfbench/README.md defines every metric. *)

module Client = Flb_service.Client
module Wire = Flb_service.Wire

let now = Unix.gettimeofday

(* --- arguments --- *)

let arg name =
  let rec find = function
    | flag :: v :: _ when flag = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let flag name = Array.mem name Sys.argv

let required name =
  match arg name with
  | Some v -> v
  | None ->
    Printf.eprintf "perf: missing %s\n" name;
    exit 2

let workload = required "--workload"

let seed = int_of_string (required "--seed")

let seconds = float_of_string (required "--seconds")

let traced = required "--trace" = "1"

let flb_exe = required "--flb"

let out_dir = required "--out"

let tiny = flag "--tiny"

let corrupt = flag "--corrupt-reference"

let setups = match arg "--setups" with Some k -> int_of_string k | None -> 3

let nproc = Domain.recommended_domain_count ()

let clients = max 1 (min 2 nproc)

let procs = 8

(* --- metric names, units and output --- *)

let end_to_end =
  [
    ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("placement_p50_ms", "ms");
    ("placement_p99_ms", "ms");
    ("placed_tasks_per_s", "tasks/s");
    ("peak_rss_mb", "MiB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("client.rtt_ms", "ms");
    ("client.unattributed_ms", "ms");
    ("trace.overhead_ms", "ms");
    ("failed_share", "ratio");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.request_bytes", "B");
    ("wire.response_bytes", "B");
    ("serial.parse_us", "us");
    ("cache.digest_us", "us");
    ("cache.key_us", "us");
    ("cache.stage_ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("router.hop_ms", "ms");
    ("router.upstream_hit_ratio", "ratio");
    ("router.failovers", "count");
    ("router.hedges", "count");
    ("router.backend_share_max", "ratio");
    ("pool.queue_wait_ms", "ms");
    ("pool.queue_wait_p50_ms", "ms");
    ("pool.queue_wait_p99_ms", "ms");
    ("server.sched_ms", "ms");
    ("server.exec_ms", "ms");
    ("server.exec_other_ms", "ms");
    ("flb.ns_per_task", "ns");
    ("flb.bytes_per_task", "B");
    ("mcp.ns_per_task", "ns");
    ("stream.add_tasks_ms", "ms");
    ("stream.add_edges_ms", "ms");
    ("stream.poll_ms", "ms");
    ("stream.seal_ms", "ms");
    ("stream.rounds", "count");
    ("stream.tasks_per_round", "count");
    ("stream.streams_per_round", "count");
    ("static_over_predicted", "ratio");
    ("affinity_over_predicted", "ratio");
    ("runtime.static.busy_share", "ratio");
    ("runtime.static.idle_ms", "ms");
    ("runtime.static.steals", "count");
    ("runtime.static.hint_hit_rate", "ratio");
    ("runtime.affinity.busy_share", "ratio");
    ("runtime.affinity.idle_ms", "ms");
    ("runtime.affinity.steals", "count");
    ("runtime.affinity.hint_hit_rate", "ratio");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v = Hashtbl.replace values name v

let set_all = List.iter (fun (name, v) -> set name v)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "NaN"

(* Every metric of the run's set, in declaration order; a layer the
   workload never exercises reads 0. *)
let print_result ~correct ~attempted ~failed =
  let names = if traced then per_layer else end_to_end in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt values name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* --- sub-runs --- *)

let ms s = s *. 1e3

let median_of xs =
  let s = Sample.create () in
  List.iter (Sample.add s) xs;
  Sample.median s

(* An untraced run is [setups] sub-runs, each measuring a freshly set-up
   system for its share of the seconds; set-up time and peak RSS are
   medians over the sub-runs. On a virtual machine other guests can take
   the CPUs for seconds at a time (/proc/stat "steal"), slowing every
   layer at once: a sub-run that lost more than [steal_limit] of the
   host's CPU time is measured again, up to [setups] extra times, and the
   [setups] least-disturbed sub-runs are kept. *)
let steal_limit = 0.04

let sub_runs ~setup ~measure =
  let rec go i clean acc =
    if clean >= setups || i >= 2 * setups then List.rev acc
    else begin
      let t0 = now () in
      let st = setup () in
      let setup_s = now () -. t0 in
      let s0, j0 = Procs.cpu_jiffies () in
      let r = measure i st in
      let s1, j1 = Procs.cpu_jiffies () in
      let steal = float_of_int (s1 - s0) /. float_of_int (max 1 (j1 - j0)) in
      let clean = if steal <= steal_limit then clean + 1 else clean in
      go (i + 1) clean ((i, steal, setup_s, r) :: acc)
    end
  in
  let all = go 0 0 [] in
  let kept =
    List.filteri (fun k _ -> k < setups)
      (List.stable_sort (fun (_, a, _, _) (_, b, _, _) -> Float.compare a b) all)
  in
  let kept = List.sort (fun (i, _, _, _) (j, _, _, _) -> Int.compare i j) kept in
  Printf.printf "{\"sub_runs\": {\"measured\": %d, \"kept\": %d, \"steal_share\": [%s]}}\n%!"
    (List.length all) (List.length kept)
    (String.concat ", " (List.map (fun (_, s, _, _) -> Printf.sprintf "%.4f" s) all));
  set "setup_s" (median_of (List.map (fun (_, _, s, _) -> s) kept));
  List.map (fun (_, _, _, r) -> r) kept

let share = seconds /. float_of_int setups

(* A traced run sets up as often, but measures only the last system. *)
let last_setup ~setup ~teardown =
  let rec go i =
    let st = setup () in
    if i < setups then begin
      teardown st;
      go (i + 1)
    end
    else st
  in
  go 1

(* Rates and medians are reported as medians over roughly one-second
   slices of every sub-run's window (each row holds one slice's
   figures); a slice holds too few samples for a p99, so tails are the
   median over sub-runs of each sub-run's pooled p99. *)
let slice_count window = max 1 (truncate (window +. 0.5))

let report_slices rows =
  match rows with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun (name, _) -> set name (median_of (List.map (List.assoc name) rows)))
      first

let set_failed_share ~attempted ~failed =
  set "failed_share" (float_of_int failed /. float_of_int (max 1 attempted))

let pool_domains port =
  match Client.get_stats (Conns.get ~port ~slot:Conns.control) ~format:Wire.Stats_json with
  | Error _ -> 0
  | Ok text ->
    let key = "\"domains\":" in
    let k = String.length key in
    let rec find i =
      if i + k > String.length text then 0
      else if String.sub text i k = key then begin
        let j = ref (i + k) in
        while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j
        done;
        int_of_string (String.sub text (i + k) (!j - i - k))
      end
      else find (i + 1)
    in
    find 0

(* Host facts go with every result, on the line before it. *)
let host_facts ~daemon_domains ~engine_domains =
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"ocaml\": %S, \"daemon_domains\": %d, \
     \"client_threads\": %d, \"engine_domains\": %d, \"workload\": %S, \"seed\": \
     %d, \"seconds\": %g, \"trace\": %b}}\n%!"
    nproc Sys.ocaml_version daemon_domains
    (if engine_domains > 0 then 0 else clients)
    engine_domains workload seed seconds traced

let trace_path () =
  Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed)

let take n l = List.filteri (fun i _ -> i < n) l

(* A workload that stops doing what it is named for fails loudly. *)
let character_ok = ref true

let expect what cond =
  if not cond then begin
    character_ok := false;
    Printf.eprintf "workload check failed: %s\n%!" what
  end

let wire_ms () =
  (Hashtbl.find values "wire.encode_us" +. Hashtbl.find values "wire.decode_us") /. 1e3

(* --- router-hit and direct-miss --- *)

type fleet = {
  daemons : Procs.t list;
  router : Procs.t option;
  reqs : Inputs.request array;
  cursor : int Atomic.t;  (* next request, shared by every window *)
}

let front f = match f.router with Some r -> r | None -> List.hd f.daemons

let stop_fleet f =
  Option.iter Procs.stop f.router;
  List.iter Procs.stop f.daemons

let schedule_all port (reqs : Inputs.request list) =
  let c = Conns.get ~port ~slot:Conns.control in
  List.iter
    (fun (r : Inputs.request) ->
      match Client.schedule c ~graph:r.Inputs.text ~algo:Inputs.algo_name ~procs with
      | Ok (Wire.Scheduled s) when Oneshot.same_makespan s.makespan r.Inputs.reference -> ()
      | _ -> failwith "warm-up request was not answered correctly")
    reqs

let setup_router_hit () =
  let daemons = [ Procs.serve ~exe:flb_exe (); Procs.serve ~exe:flb_exe () ] in
  let router = Procs.route ~exe:flb_exe ~backends:daemons in
  let structures = Inputs.e4 ~tasks:(if tiny then 60 else 500) in
  let reqs =
    Array.init 6 (fun i -> Inputs.request (Inputs.nth structures ~seed i) ~procs)
  in
  (* Warm both replicas' caches directly, then the router's path. *)
  List.iter (fun d -> schedule_all d.Procs.port (Array.to_list reqs)) daemons;
  schedule_all router.Procs.port (Array.to_list reqs);
  { daemons; router = Some router; reqs; cursor = Atomic.make 0 }

(* More distinct graphs than the daemon's default LRU capacity (256):
   cycling through them in order, every graph has been evicted before it
   comes round again, so every request misses. *)
let direct_miss_pool = 320

let setup_direct_miss () =
  let daemon = Procs.serve ~exe:flb_exe () in
  let structures = Inputs.e4 ~tasks:(if tiny then 60 else 1000) in
  let count = if tiny then 300 else direct_miss_pool in
  let reqs =
    Array.init count (fun i -> Inputs.request (Inputs.nth structures ~seed i) ~procs)
  in
  (* Warm the daemon with graphs outside the pool, so the pool still
     never hits. *)
  schedule_all daemon.Procs.port
    (List.init 4 (fun i -> Inputs.request (Inputs.nth structures ~seed (count + i)) ~procs));
  { daemons = [ daemon ]; router = None; reqs; cursor = Atomic.make 0 }

let scrape_fleet f =
  ( List.map (fun d -> Scrape.fetch ~port:d.Procs.port) f.daemons,
    Option.map (fun r -> Scrape.fetch ~port:r.Procs.port) f.router )

(* Cache hit ratio over a window, from the daemons' own counters; a
   workload whose hit ratio leaves its range fails the run. *)
let check_hit_ratio ~routed (before, _) (after, _) =
  let sum name =
    List.fold_left2 (fun acc b a -> acc +. Scrape.delta ~before:b ~after:a name) 0.0 before after
  in
  let hits = sum "cache_hits_total" and misses = sum "cache_misses_total" in
  let ratio = if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses) in
  if routed then expect (Printf.sprintf "router-hit cache hit ratio %.4f < 0.99" ratio) (ratio >= 0.99)
  else expect (Printf.sprintf "direct-miss cache hit ratio %.4f > 0" ratio) (ratio = 0.0);
  ratio

let fleet_rss f =
  List.fold_left
    (fun acc p -> acc +. Procs.peak_rss_mb p.Procs.pid)
    0.0
    (f.daemons @ Option.to_list f.router)

let fleet_ready f i =
  if corrupt then f.reqs.(0).Inputs.reference <- f.reqs.(0).Inputs.reference *. 1.5;
  if i = 0 then
    host_facts ~daemon_domains:(pool_domains (List.hd f.daemons).Procs.port) ~engine_domains:0

let load ?spans ?ports f ~seconds =
  let ports = match ports with Some p -> p | None -> [| (front f).Procs.port |] in
  Oneshot.run ?spans ~cursor:f.cursor ~ports ~clients ~seconds ~procs f.reqs

let oneshot_end_to_end ~routed setup =
  let subs =
    sub_runs ~setup ~measure:(fun i f ->
        fleet_ready f i;
        let before = scrape_fleet f in
        let w = load f ~seconds:share in
        ignore (check_hit_ratio ~routed before (scrape_fleet f));
        let rss = fleet_rss f in
        stop_fleet f;
        (f.reqs, w, rss))
  in
  let rows =
    List.concat_map
      (fun (reqs, (w : Oneshot.window), _) ->
        let n = slice_count w.seconds in
        let len = w.seconds /. float_of_int n in
        Array.to_list
          (Array.map
             (fun answers ->
               let rtt = Oneshot.rtt_sample answers in
               let pairs = Oneshot.placement_pairs reqs answers in
               [
                 ("throughput_rps", float_of_int (List.length answers) /. len);
                 ("latency_p50_ms", ms (Sample.median rtt));
                 ("placement_p50_ms", Sample.weighted_quantile pairs 0.5);
                 ("placed_tasks_per_s", float_of_int (Oneshot.placed_tasks reqs answers) /. len);
               ])
             (Sample.slices ~start:w.start ~len:w.seconds ~n ~at:(fun a -> a.Oneshot.at) w.answers)))
      subs
  in
  report_slices rows;
  let tail f = median_of (List.map f subs) in
  set "latency_p99_ms"
    (tail (fun (_, (w : Oneshot.window), _) -> ms (Sample.quantile (Oneshot.rtt_sample w.answers) 0.99)));
  set "placement_p99_ms"
    (tail (fun (reqs, (w : Oneshot.window), _) ->
         Sample.weighted_quantile (Oneshot.placement_pairs reqs w.answers) 0.99));
  set "peak_rss_mb" (median_of (List.map (fun (_, _, r) -> r) subs));
  List.fold_left
    (fun (a, f) (_, (w : Oneshot.window), _) -> (a + w.attempted, f + w.failed))
    (0, 0) subs

let router_layer ~hop (rb : Scrape.t) (ra : Scrape.t) =
  let d = Scrape.delta ~before:rb ~after:ra in
  set "router.hop_ms" hop;
  set "router.upstream_hit_ratio"
    (d "router_upstream_cache_hits_total" /. Float.max 1.0 (d "router_scheduled_total"));
  set "router.failovers" (d "router_failovers_total");
  set "router.hedges" (d "router_hedge_total");
  let forwarded =
    List.map
      (fun (name, v) -> v -. Scrape.get rb name)
      (Scrape.matching ra ~prefix:"router_backend_" ~suffix:"_requests_total")
  in
  set "router.backend_share_max"
    (List.fold_left Float.max 0.0 forwarded
    /. Float.max 1.0 (List.fold_left ( +. ) 0.0 forwarded))

let oneshot_per_layer ~routed setup =
  let f = last_setup ~setup ~teardown:stop_fleet in
  fleet_ready f 0;
  let untraced = load f ~seconds:(seconds /. 2.0) in
  let spans = Spans.create () in
  let before = scrape_fleet f in
  let w = load ~spans f ~seconds:(seconds /. 2.0) in
  let after = scrape_fleet f in
  set "cache.hit_ratio" (check_hit_ratio ~routed before after);
  (* The paired direct pass: the same graphs straight to the daemons,
     each client on its own replica as the router spreads them; the
     router hop is the difference of the mean round trips. *)
  let direct =
    if routed then
      Some (load f ~ports:(Array.of_list (List.map (fun d -> d.Procs.port) f.daemons)) ~seconds:(seconds /. 4.0))
    else None
  in
  stop_fleet f;
  let mean_rtt (w : Oneshot.window) = Sample.mean (Oneshot.rtt_sample w.answers) in
  let hop = match direct with Some d -> ms (mean_rtt untraced -. mean_rtt d) | None -> 0.0 in
  (match (before, after) with
  | (_, Some rb), (_, Some ra) -> router_layer ~hop rb ra
  | _ -> ());
  let stage f = Oneshot.stage_sample w f in
  let qw = stage (fun b -> b.Wire.queue_wait_s) in
  set "pool.queue_wait_ms" (ms (Sample.mean qw));
  set "pool.queue_wait_p50_ms" (ms (Sample.median qw));
  set "pool.queue_wait_p99_ms" (ms (Sample.quantile qw 0.99));
  set "cache.stage_ms" (ms (Sample.mean (stage (fun b -> b.Wire.cache_s))));
  set "server.sched_ms" (ms (Sample.mean (stage (fun b -> b.Wire.sched_s))));
  set "server.exec_ms" (ms (Sample.mean (stage (fun b -> b.Wire.exec_s))));
  set "server.exec_other_ms"
    (ms (Sample.mean (stage (fun b -> b.Wire.exec_s -. b.Wire.sched_s))));
  let sample_reqs = take 12 (Array.to_list f.reqs) in
  set_all
    (Layers.wire ~spans
       (List.map
          (fun r -> Wire.Schedule { graph = r.Inputs.text; algo = Inputs.algo_name; procs })
          sample_reqs)
       (List.map snd w.responses));
  set_all (Layers.graphs ~spans ~procs (List.map (fun r -> r.Inputs.graph) sample_reqs));
  (* The additive split of the mean round trip: client-side encode and
     decode, the server-reported stages, the router hop, and the
     remainder as its own column. *)
  let rtt = ms (mean_rtt w) in
  set "client.rtt_ms" rtt;
  set "client.unattributed_ms"
    (rtt -. wire_ms () -. Hashtbl.find values "pool.queue_wait_ms"
    -. Hashtbl.find values "cache.stage_ms" -. Hashtbl.find values "server.exec_ms" -. hop);
  set "trace.overhead_ms"
    (ms
       (Sample.median (Oneshot.rtt_sample w.answers)
       -. Sample.median (Oneshot.rtt_sample untraced.answers)));
  Spans.save spans ~path:(trace_path ());
  let attempted = untraced.attempted + w.attempted in
  let failed = untraced.failed + w.failed in
  set_failed_share ~attempted ~failed;
  (attempted, failed)

(* --- stream --- *)

let stream_procs = 8

type stream_sut = { daemon : Procs.t; inputs : Streaming.input array }

(* A stream's half-shipped batch (tasks added, edges not yet) is
   protected from other streams' rounds only until it has idled one
   round-timer period, 50 ms by default; a client starved of CPU for
   longer by the host would then see its edges rejected. A 1 s timer
   keeps that failure out of the measurements: the clients poll after
   every batch, so the timer never drives their rounds. *)
let setup_stream () =
  let daemon = Procs.serve ~args:[ "--stream-tick"; "1" ] ~exe:flb_exe () in
  let structures = Inputs.e4 ~tasks:(if tiny then 40 else 500) in
  let inputs =
    Array.init (if tiny then 4 else 16) (fun i ->
        Streaming.prepare ~chunks:4 (Inputs.nth structures ~seed i))
  in
  (* One warm-up stream, checked like every other. *)
  Streaming.one_stream ~spans:Spans.off ~track:"warm-up" ~procs:stream_procs
    ~keep_frames:false
    (Conns.get ~port:daemon.Procs.port ~slot:Conns.control)
    inputs.(0) (Streaming.tally ());
  { daemon; inputs }

(* The checker's copy of the first graph with every weight tenfold:
   correct placements of the real graph must then fail the check. *)
let corrupt_stream (input : Streaming.input) =
  let g = input.graph in
  let open Flb_taskgraph in
  let comp = Array.init (Taskgraph.num_tasks g) (fun v -> 10.0 *. Taskgraph.comp g v) in
  let edges = ref [] in
  Taskgraph.iter_edges (fun u v c -> edges := (u, v, c) :: !edges) g;
  { input with graph = Taskgraph.of_arrays ~comp ~edges:(Array.of_list (List.rev !edges)) }

let stream_ready s i =
  if corrupt then s.inputs.(0) <- corrupt_stream s.inputs.(0);
  if i = 0 then host_facts ~daemon_domains:(pool_domains s.daemon.Procs.port) ~engine_domains:0

let stream_load ?spans s ~seconds =
  Streaming.run ?spans ~port:s.daemon.Procs.port ~clients ~seconds ~procs:stream_procs s.inputs

let stream_end_to_end () =
  let subs =
    sub_runs ~setup:setup_stream ~measure:(fun i s ->
        stream_ready s i;
        let w = stream_load s ~seconds:share in
        let rss = Procs.peak_rss_mb s.daemon.Procs.pid in
        Procs.stop s.daemon;
        (w, rss))
  in
  let rows =
    List.concat_map
      (fun ((w : Streaming.window), _) ->
        let t = w.total in
        let n = slice_count w.seconds in
        let len = w.seconds /. float_of_int n in
        let cut ~at values = Sample.slice_timed ~start:w.start ~len:w.seconds ~n ~at values in
        let streams = cut ~at:t.finished_at t.duration in
        let placed = cut ~at:t.placed_at t.placement in
        Array.to_list
          (Array.mapi
             (fun k d ->
               [
                 ("throughput_rps", float_of_int (Sample.length d) /. len);
                 ("latency_p50_ms", ms (Sample.median d));
                 ("placement_p50_ms", ms (Sample.median placed.(k)));
                 ("placed_tasks_per_s", float_of_int (Sample.length placed.(k)) /. len);
               ])
             streams))
      subs
  in
  report_slices rows;
  let tail f = median_of (List.map (fun ((w : Streaming.window), _) -> ms (Sample.quantile (f w.total) 0.99)) subs) in
  set "latency_p99_ms" (tail (fun t -> t.Streaming.duration));
  set "placement_p99_ms" (tail (fun t -> t.Streaming.placement));
  set "peak_rss_mb" (median_of (List.map snd subs));
  List.fold_left
    (fun (a, f) ((w : Streaming.window), _) -> (a + w.total.attempted, f + w.total.failed))
    (0, 0) subs

let stream_per_layer () =
  let s = last_setup ~setup:setup_stream ~teardown:(fun s -> Procs.stop s.daemon) in
  stream_ready s 0;
  let port = s.daemon.Procs.port in
  let untraced = stream_load s ~seconds:(seconds /. 2.0) in
  let spans = Spans.create () in
  let before = Scrape.fetch ~port in
  let w = stream_load ~spans s ~seconds:(seconds /. 2.0) in
  let after = Scrape.fetch ~port in
  Procs.stop s.daemon;
  let t = w.total in
  List.iter
    (fun k ->
      set ("stream." ^ k ^ "_ms") (ms (Sample.median t.by_kind.(Streaming.kind_index k))))
    [ "add_tasks"; "add_edges"; "poll"; "seal" ];
  let d = Scrape.delta ~before ~after in
  let rounds = d "stream_rounds_total" in
  set "stream.rounds" rounds;
  set "stream.tasks_per_round" (d "stream_placed_total" /. Float.max 1.0 rounds);
  set "stream.streams_per_round" (float_of_int t.rounds /. Float.max 1.0 rounds);
  set_all (Layers.wire ~spans t.requests t.responses);
  set_all
    (Layers.graphs ~spans ~procs:stream_procs
       (take 12 (Array.to_list (Array.map (fun (i : Streaming.input) -> i.graph) s.inputs))));
  let rtt = ms (Sample.mean t.call_rtt) in
  set "client.rtt_ms" rtt;
  set "client.unattributed_ms" (rtt -. wire_ms ());
  set "trace.overhead_ms"
    (ms (Sample.median t.call_rtt -. Sample.median untraced.total.call_rtt));
  Spans.save spans ~path:(trace_path ());
  let attempted = untraced.total.attempted + t.attempted in
  let failed = untraced.total.failed + t.failed in
  set_failed_share ~attempted ~failed;
  (attempted, failed)

(* --- execute --- *)

let engine_domains = max 1 (min 2 nproc)

let setup_execute () =
  let structures = Inputs.e4 ~tasks:(if tiny then 40 else 300) in
  let inputs =
    Array.init 6 (fun i ->
        Execute.prepare ~domains:engine_domains ~predicted_ms:(if tiny then 1.0 else 4.0)
          ~seed (Inputs.nth structures ~seed i))
  in
  ignore (Flb_runtime.Calibrate.default ());
  (* One warm-up pair per schedule. *)
  Array.iter
    (fun (i : Execute.input) ->
      let s = Flb_runtime.Static.run ~config:i.config i.sched in
      let a = Flb_runtime.Affinity.run ~config:i.config i.sched in
      if not (Flb_runtime.Engine.complete s && Flb_runtime.Engine.complete a) then
        failwith "warm-up run incomplete")
    inputs;
  inputs

let execute_ready (inputs : Execute.input array) i =
  if corrupt then inputs.(0) <- { (inputs.(0)) with tasks = inputs.(0).tasks + 1 };
  if i = 0 then host_facts ~daemon_domains:0 ~engine_domains

let execute_end_to_end () =
  (* The engines run inside this process, whose peak RSS keeps growing
     with every domain spawned; read it after the first sub-run, so a
     re-measured sub-run does not inflate it. *)
  let rss = ref 0.0 in
  let ws =
    sub_runs ~setup:setup_execute ~measure:(fun i inputs ->
        execute_ready inputs i;
        let w = Execute.run ~seconds:share inputs in
        if i = 0 then rss := Procs.self_peak_rss_mb ();
        w)
  in
  let rows =
    List.concat_map
      (fun (w : Execute.window) ->
        let n = slice_count w.seconds in
        let len = w.seconds /. float_of_int n in
        Array.to_list
          (Array.map
             (fun (pairs : Execute.pair list) ->
               let real = Sample.of_list (List.map (fun p -> p.Execute.real_ms) pairs) in
               let calls = List.map (fun p -> (p.Execute.call_ms, p.Execute.tasks)) pairs in
               let executed = List.fold_left (fun acc p -> acc + p.Execute.executed) 0 pairs in
               [
                 ("throughput_rps", float_of_int (List.length pairs) /. len);
                 ("latency_p50_ms", Sample.median real);
                 ("placement_p50_ms", Sample.weighted_quantile calls 0.5);
                 ("placed_tasks_per_s", float_of_int executed /. len);
               ])
             (Sample.slices ~start:w.start ~len:w.seconds ~n ~at:(fun p -> p.Execute.at) w.pairs)))
      ws
  in
  report_slices rows;
  let tail f = median_of (List.map (fun (w : Execute.window) -> f w.pairs) ws) in
  set "latency_p99_ms"
    (tail (fun pairs -> Sample.quantile (Sample.of_list (List.map (fun p -> p.Execute.real_ms) pairs)) 0.99));
  set "placement_p99_ms"
    (tail (fun pairs ->
         Sample.weighted_quantile (List.map (fun p -> (p.Execute.call_ms, p.Execute.tasks)) pairs) 0.99));
  set "peak_rss_mb" !rss;
  List.fold_left (fun (a, f) (w : Execute.window) -> (a + w.attempted, f + w.failed)) (0, 0) ws

let execute_per_layer () =
  let inputs = last_setup ~setup:setup_execute ~teardown:ignore in
  execute_ready inputs 0;
  let spans = Spans.create () in
  let w = Execute.run ~spans ~keep_outcomes:true ~seconds inputs in
  let engine prefix runs ratio_name =
    let ratio, figures = Execute.layer runs in
    set ratio_name ratio;
    List.iter (fun (name, v) -> set (prefix ^ name) v) figures
  in
  engine "runtime.static." w.static_runs "static_over_predicted";
  engine "runtime.affinity." w.affinity_runs "affinity_over_predicted";
  set_all
    (Layers.graphs ~spans ~procs:engine_domains
       (List.map (fun (i : Execute.input) -> Flb_platform.Schedule.graph i.sched) (Array.to_list inputs)));
  Spans.save spans ~path:(trace_path ());
  set_failed_share ~attempted:w.attempted ~failed:w.failed;
  (w.attempted, w.failed)

let () =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let attempted, failed =
    match (workload, traced) with
    | "router-hit", false -> oneshot_end_to_end ~routed:true setup_router_hit
    | "router-hit", true -> oneshot_per_layer ~routed:true setup_router_hit
    | "direct-miss", false -> oneshot_end_to_end ~routed:false setup_direct_miss
    | "direct-miss", true -> oneshot_per_layer ~routed:false setup_direct_miss
    | "stream", false -> stream_end_to_end ()
    | "stream", true -> stream_per_layer ()
    | "execute", false -> execute_end_to_end ()
    | "execute", true -> execute_per_layer ()
    | other, _ ->
      Printf.eprintf "perf: unknown workload %S\n" other;
      exit 2
  in
  print_result
    ~correct:(failed = 0 && !character_ok && attempted > 0)
    ~attempted:(max 1 attempted) ~failed
