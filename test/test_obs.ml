(* The observability layer: tracer, metrics registry, scheduler probe,
   and their integration with the schedulers and the simulator. *)

open! Flb_taskgraph
open! Flb_platform
open Testutil
module Trace = Flb_obs.Trace
module Obs_metrics = Flb_obs.Metrics
module Probe = Flb_obs.Probe
module Log_histogram = Flb_prelude.Stats.Log_histogram
module Json = Flb_prelude.Json

let machine2 () = Machine.clique ~num_procs:2

let contains_s hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

(* --- Log-scale histogram --- *)

let test_log_histogram () =
  let h = Log_histogram.create () in
  check_int "empty count" 0 (Log_histogram.count h);
  check_raises_invalid "empty min" (fun () -> ignore (Log_histogram.min h));
  check_raises_invalid "empty quantile" (fun () ->
      ignore (Log_histogram.quantile h ~q:0.5));
  check_raises_invalid "bad gamma" (fun () ->
      ignore (Log_histogram.create ~gamma:1.0 ()));
  List.iter (fun x -> Log_histogram.observe h x) [ 1.0; 2.0; 4.0; 8.0; 100.0 ];
  check_int "count" 5 (Log_histogram.count h);
  check_float "sum" 115.0 (Log_histogram.sum h);
  check_float "min exact" 1.0 (Log_histogram.min h);
  check_float "max exact" 100.0 (Log_histogram.max h);
  check_float "mean" 23.0 (Log_histogram.mean h);
  (* default gamma = 2^(1/4): every quantile is within sqrt gamma - 1
     (~9.05%) relative error of the exact sample *)
  let within_bound exact approx =
    Float.abs (approx -. exact) /. exact <= sqrt (sqrt (sqrt 2.0)) -. 1.0 +. 1e-9
  in
  check_bool "p50 near 4" true (within_bound 4.0 (Log_histogram.p50 h));
  check_bool "p99 near max" true (within_bound 100.0 (Log_histogram.p99 h));
  check_bool "q=1 near max" true
    (within_bound 100.0 (Log_histogram.quantile h ~q:1.0));
  check_raises_invalid "q out of range" (fun () ->
      ignore (Log_histogram.quantile h ~q:1.5))

let test_log_histogram_zeros () =
  let h = Log_histogram.create () in
  Log_histogram.observe h 0.0;
  Log_histogram.observe h 0.0;
  Log_histogram.observe h 5.0;
  check_int "count includes zeros" 3 (Log_histogram.count h);
  check_float "p50 in the zero bucket" 0.0 (Log_histogram.quantile h ~q:0.5);
  check_float "min is zero" 0.0 (Log_histogram.min h)

let qsuite_histogram =
  [
    qtest ~count:100 "log-histogram quantiles stay within the gamma bound"
      QCheck.(list_of_size Gen.(int_range 1 200) (QCheck.float_range 1e-9 1e6))
      (fun samples ->
        let h = Log_histogram.create () in
        List.iter (Log_histogram.observe h) samples;
        let sorted = List.sort compare samples in
        let n = List.length sorted in
        List.for_all
          (fun q ->
            let exact =
              List.nth sorted
                (Stdlib.max 0
                   (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
            in
            let approx = Log_histogram.quantile h ~q in
            (* bucket relative error sqrt gamma - 1 ~ 9.05%, plus
               clamping only ever moves toward the exact value *)
            Float.abs (approx -. exact) <= (0.091 *. exact) +. 1e-12)
          [ 0.5; 0.95; 0.99 ]);
  ]

(* --- Tracer --- *)

let fake_clock times =
  let remaining = ref times in
  fun () ->
    match !remaining with
    | [] -> Alcotest.fail "fake clock exhausted"
    | t :: rest ->
      remaining := rest;
      t

let test_trace_null_free () =
  let t = Trace.null in
  check_bool "disabled" false (Trace.enabled t);
  Trace.add_span t ~track:"x" ~name:"s" ~ts:0.0 ~dur:1.0;
  Trace.instant t ~track:"x" "i";
  Trace.counter t ~track:"x" ~name:"c" 1.0;
  check_int "records nothing" 0 (Trace.num_events t);
  check_float "now is 0" 0.0 (Trace.now t);
  check_int "with_span is just the thunk" 41 (Trace.with_span t ~track:"x" "s" (fun () -> 41))

let test_trace_records () =
  (* epoch read at create: 10; span brackets at 11 and 13.5 *)
  let t = Trace.create ~clock:(fake_clock [ 10.0; 11.0; 13.5 ]) () in
  check_bool "enabled" true (Trace.enabled t);
  let v = Trace.with_span t ~track:"work" "outer" (fun () -> 7) in
  check_int "value through span" 7 v;
  check_int "one event" 1 (Trace.num_events t);
  let jsonl = Trace.to_jsonl t in
  check_bool "span line" true (contains_s jsonl "\"type\":\"span\"");
  check_bool "relative ts" true (contains_s jsonl "\"ts\":1,");
  check_bool "duration" true (contains_s jsonl "\"dur\":2.5")

let test_trace_records_on_raise () =
  let t = Trace.create ~clock:(fake_clock [ 0.0; 1.0; 2.0 ]) () in
  (try Trace.with_span t ~track:"work" "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "span recorded despite raise" 1 (Trace.num_events t)

(* Golden test for the Chrome sink: the byte-level trace-event format is
   consumed by Perfetto, so it is a contract just like
   Chrome_trace.of_schedule's. *)
let obs_chrome_golden =
  "{\"traceEvents\": [\n\
   {\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"golden\"}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"phases\"}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"ready set\"}},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"priority\",\"ts\":1.000,\"dur\":2.000,\"args\":{\"tasks\":8}},\n\
   {\"ph\":\"i\",\"pid\":0,\"tid\":0,\"name\":\"pick\",\"ts\":4.000,\"s\":\"t\"},\n\
   {\"ph\":\"C\",\"pid\":0,\"tid\":1,\"name\":\"ready\",\"ts\":4.000,\"args\":{\"value\":3}}\n\
   ]}\n"

let test_trace_chrome_golden () =
  let t = Trace.create ~clock:(fun () -> 0.0) () in
  Trace.add_span t ~track:"phases" ~name:"priority" ~ts:1e-6 ~dur:2e-6
    ~args:[ ("tasks", 8.0) ];
  Trace.instant t ~ts:4e-6 ~track:"phases" "pick";
  Trace.counter t ~ts:4e-6 ~track:"ready set" ~name:"ready" 3.0;
  Alcotest.(check string)
    "byte-identical emission" obs_chrome_golden
    (Trace.to_chrome_json ~name:"golden" t)

(* --- Metrics registry --- *)

let test_metrics_registry () =
  let reg = Obs_metrics.create () in
  let c = Obs_metrics.counter reg ~help:"a counter" "requests_total" in
  Obs_metrics.Counter.incr c;
  Obs_metrics.Counter.add c 4;
  check_int "counter value" 5 (Obs_metrics.Counter.value c);
  check_raises_invalid "negative increment" (fun () ->
      Obs_metrics.Counter.add c (-1));
  (* registration is idempotent by name: same metric comes back *)
  Obs_metrics.Counter.incr (Obs_metrics.counter reg "requests_total");
  check_int "shared series" 6 (Obs_metrics.Counter.value c);
  check_raises_invalid "kind clash" (fun () ->
      ignore (Obs_metrics.gauge reg "requests_total"));
  let g = Obs_metrics.gauge reg ~help:"a gauge" "queue depth" in
  Obs_metrics.Gauge.set g 2.5;
  Obs_metrics.Gauge.add g 0.5;
  let h = Obs_metrics.histogram reg "latency" in
  List.iter (Obs_metrics.Histogram.observe h) [ 1.0; 2.0; 4.0 ];
  let prom = Obs_metrics.to_prometheus reg in
  check_bool "counter line" true (contains_s prom "requests_total 6");
  check_bool "help line" true (contains_s prom "# HELP requests_total a counter");
  check_bool "type line" true (contains_s prom "# TYPE requests_total counter");
  check_bool "gauge sanitized" true (contains_s prom "queue_depth 3");
  check_bool "summary type" true (contains_s prom "# TYPE latency summary");
  check_bool "p50 quantile" true (contains_s prom "latency{quantile=\"0.5\"}");
  check_bool "summary count" true (contains_s prom "latency_count 3");
  check_bool "summary sum" true (contains_s prom "latency_sum 7");
  let json = Obs_metrics.to_json reg in
  check_bool "json counter" true (contains_s json "\"requests_total\":6");
  check_bool "json histogram count" true (contains_s json "\"count\":3")

let test_metrics_multidomain () =
  (* the registry is shared by the service's connection threads and
     worker domains: concurrent increments must lose no counts, and
     concurrent registration must stay idempotent *)
  let reg = Obs_metrics.create () in
  let c = Obs_metrics.counter reg "shared_total" in
  let g = Obs_metrics.gauge reg "shared_gauge" in
  let h = Obs_metrics.histogram reg "shared_latency" in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs_metrics.Counter.incr c;
              Obs_metrics.Gauge.add g 1.0;
              if i mod 100 = 0 then begin
                Obs_metrics.Histogram.observe h (float_of_int i);
                (* same-name registration from racing domains returns the
                   shared series rather than corrupting the index *)
                Obs_metrics.Counter.incr (Obs_metrics.counter reg "shared_total");
                ignore (Obs_metrics.counter reg (Printf.sprintf "domain_%d_total" d))
              end
            done))
  in
  List.iter Domain.join domains;
  check_int "no lost counter increments"
    ((4 * per_domain) + (4 * (per_domain / 100)))
    (Obs_metrics.Counter.value c);
  check_float "no lost gauge adds"
    (float_of_int (4 * per_domain))
    (Obs_metrics.Gauge.value g);
  check_int "no lost histogram observations"
    (4 * (per_domain / 100))
    (Obs_metrics.Histogram.count h);
  (* exposition still renders every concurrently registered series *)
  let prom = Obs_metrics.to_prometheus reg in
  for d = 0 to 3 do
    check_bool
      (Printf.sprintf "domain_%d series present" d)
      true
      (contains_s prom (Printf.sprintf "domain_%d_total" d))
  done

let test_metrics_sanitize () =
  Alcotest.(check string) "dashes fold" "dsc_llb" (Obs_metrics.sanitize "DSC-LLB");
  Alcotest.(check string) "colon kept" "a:b_c" (Obs_metrics.sanitize "a:b c")

let test_metrics_escaping () =
  Alcotest.(check string) "digit-led name prefixed" "_42x42"
    (Obs_metrics.sanitize "42x42");
  Alcotest.(check string) "empty name survives" "_" (Obs_metrics.sanitize "");
  Alcotest.(check string) "help escapes backslash and newline" "a\\\\b\\nc"
    (Obs_metrics.escape_help "a\\b\nc");
  Alcotest.(check string) "label value escapes quotes too" "say \\\"hi\\\"\\n\\\\"
    (Obs_metrics.escape_label_value "say \"hi\"\n\\");
  (* a hostile help string cannot break the exposition into extra lines *)
  let reg = Obs_metrics.create () in
  ignore
    (Obs_metrics.counter reg ~help:"first\nsecond \"quoted\"" "bad name\"42");
  let prom = Obs_metrics.to_prometheus reg in
  check_bool "name sanitized in exposition" true (contains_s prom "bad_name_42");
  check_bool "raw newline neutralized" false (contains_s prom "\nsecond");
  check_bool "escaped newline kept" true (contains_s prom "first\\nsecond")

let test_metrics_empty_histogram () =
  let reg = Obs_metrics.create () in
  ignore (Obs_metrics.histogram reg "empty");
  let prom = Obs_metrics.to_prometheus reg in
  (* no quantile lines for an empty summary, but sum/count still there *)
  check_bool "no quantile line" false (contains_s prom "quantile");
  check_bool "count 0" true (contains_s prom "empty_count 0");
  check_bool "json degrades" true
    (contains_s (Obs_metrics.to_json reg) "{\"count\":0")

(* The JSON form is read back by Flb_prelude.Json's strict reader: a
   non-finite gauge is null, a name with a control byte and non-ASCII
   UTF-8 survives byte for byte, and a gauge keeps all its digits. *)
let test_metrics_json_strict () =
  let reg = Obs_metrics.create () in
  Obs_metrics.Gauge.set (Obs_metrics.gauge reg "ratio") Float.nan;
  Obs_metrics.Counter.incr (Obs_metrics.counter reg "odd\x01name_\xc3\xa9");
  Obs_metrics.Gauge.set (Obs_metrics.gauge reg "uptime_s") 123.456789012345;
  match Json.of_string (Obs_metrics.to_json reg) with
  | Error msg -> Alcotest.failf "Metrics.to_json is not JSON: %s" msg
  | Ok json ->
    check_bool "NaN gauge is null" true (Json.member "ratio" json = Some Json.Null);
    check_bool "name kept byte for byte" true
      (Json.member "odd\x01name_\xc3\xa9" json = Some (Json.int 1));
    check_bool "gauge read back exactly" true
      (Json.member "uptime_s" json = Some (Json.Num 123.456789012345))

(* --- Trace context --- *)

module Ctx = Flb_obs.Trace_context
module Flight = Flb_obs.Flight_recorder

let test_trace_context_ids () =
  let a = Ctx.mint () and b = Ctx.mint () in
  check_bool "minted ids nonzero" true (a <> 0L && b <> 0L);
  check_bool "minted ids distinct" true (a <> b);
  let hex = Ctx.id_to_string a in
  check_int "16 hex digits" 16 (String.length hex);
  check_bool "hex round trip" true (Ctx.id_of_string hex = Some a);
  check_bool "rejects non-hex" true (Ctx.id_of_string "not-a-trace-id!!" = None);
  check_bool "rejects short" true (Ctx.id_of_string "abc" = None);
  Alcotest.(check string) "zero-padded" "00000000000000ff"
    (Ctx.id_to_string 0xffL)

let test_trace_context_track () =
  let tracer = Trace.create ~clock:(fake_clock [ 0.0; 1.0; 2.0 ]) () in
  let ctx = Ctx.create ~id:0xabcdL tracer in
  check_bool "explicit id kept" true (Ctx.id ctx = 0xabcdL);
  Alcotest.(check string) "track from id" "req-000000000000abcd" (Ctx.track ctx);
  check_int "with_span emits on the track" 5
    (Ctx.with_span ctx "stage" (fun () -> 5));
  let jsonl = Trace.to_jsonl tracer in
  check_bool "span on request track" true
    (contains_s jsonl "\"track\":\"req-000000000000abcd\"");
  (* a zero id is replaced by a minted one *)
  check_bool "zero id minted" true (Ctx.id (Ctx.create ~id:0L tracer) <> 0L)

(* --- Flight recorder --- *)

let test_flight_recorder_ring () =
  check_raises_invalid "capacity 0" (fun () ->
      ignore (Flight.create ~capacity:0 ~domains:1));
  check_raises_invalid "domains 0" (fun () ->
      ignore (Flight.create ~capacity:4 ~domains:0));
  let fr = Flight.create ~capacity:4 ~domains:2 in
  check_int "capacity" 4 (Flight.capacity fr);
  check_int "domains" 2 (Flight.domains fr);
  (* six task events on a ring of four: the two oldest are overwritten *)
  for i = 0 to 5 do
    Flight.record fr ~domain:0 Flight.Task ~ts:(float_of_int i) ~dur:1.0 ~a:i
      ~b:(-1.0)
  done;
  Flight.record fr ~domain:1 Flight.Killed ~ts:9.0 ~dur:0.0 ~a:0 ~b:0.0;
  check_int "recorded counts overwrites" 6 (Flight.recorded fr ~domain:0);
  check_int "stored bounded by capacity" 4 (Flight.stored fr ~domain:0);
  check_int "other ring untouched" 1 (Flight.stored fr ~domain:1);
  let seen = ref [] in
  Flight.iter fr (fun ~domain kind ~ts:_ ~dur:_ ~a ~b:_ ->
      seen := (domain, kind, a) :: !seen);
  (match List.rev !seen with
  | (0, Flight.Task, 2) :: _ as all ->
    check_int "4 + 1 events survive" 5 (List.length all)
  | (d, _, a) :: _ -> Alcotest.failf "oldest survivor was task %d on D%d" a d
  | [] -> Alcotest.fail "iter saw nothing")

let test_flight_recorder_jsonl () =
  let fr = Flight.create ~capacity:8 ~domains:2 in
  Flight.record fr ~domain:0 Flight.Task ~ts:1.0 ~dur:2.0 ~a:3 ~b:(-1.0);
  Flight.record fr ~domain:0 Flight.Steal ~ts:3.5 ~dur:0.0 ~a:4 ~b:1.0;
  Flight.record fr ~domain:1 Flight.Killed ~ts:4.0 ~dur:0.0 ~a:0 ~b:0.0;
  let jsonl = Flight.to_jsonl ~meta:[ ("engine", "steal") ] fr in
  check_bool "meta line" true
    (contains_s jsonl "{\"type\":\"meta\",\"engine\":\"steal\"}");
  check_bool "task span" true
    (contains_s jsonl
       "{\"type\":\"span\",\"track\":\"D0\",\"name\":\"task 3\",\"ts\":1,\"dur\":2}");
  check_bool "steal instant names its victim" true
    (contains_s jsonl "\"name\":\"steal\",\"ts\":3.5,\"task\":4,\"victim\":1");
  check_bool "killed instant" true
    (contains_s jsonl "{\"type\":\"instant\",\"track\":\"D1\",\"name\":\"killed\",\"ts\":4}");
  (* no meta argument, no meta line *)
  check_bool "meta omitted" false (contains_s (Flight.to_jsonl fr) "meta")

(* --- Probe --- *)

let test_probe_null () =
  let p = Probe.null in
  check_bool "not live" false (Probe.is_live p);
  Probe.iteration p;
  Probe.task_queue_op p;
  Probe.ready_added p;
  Probe.phase_begin p Probe.Phase.Priority;
  Probe.phase_end p Probe.Phase.Priority;
  let r = Probe.report p in
  check_int "no iterations" 0 r.Probe.iterations;
  check_int "no ops" 0 r.Probe.task_queue_ops;
  check_bool "no phases" true (r.Probe.phases = [])

let test_probe_counting () =
  let p = Probe.create ~timed:false "test" in
  Probe.ready_added p;
  Probe.ready_added p;
  Probe.ready_added p;
  Probe.ready_removed p;
  Probe.ready_added p;
  Probe.iteration p;
  Probe.task_queue_ops p 2;
  Probe.proc_queue_op p;
  Probe.demotion p;
  let r = Probe.report p in
  check_int "iterations" 1 r.Probe.iterations;
  check_int "task ops" 2 r.Probe.task_queue_ops;
  check_int "proc ops" 1 r.Probe.proc_queue_ops;
  check_int "demotions" 1 r.Probe.demotions;
  check_int "peak tracks the high-water mark" 3 r.Probe.peak_ready;
  check_bool "untimed probe records no phases" true (r.Probe.phases = []);
  check_float "untimed probe records no wall time" 0.0 r.Probe.wall_seconds;
  let text = Probe.render r in
  check_bool "render names the probe" true (contains_s text "test");
  check_bool "render shows peak" true (contains_s text "peak ready      3")

let test_probe_timed_phases () =
  (* clock: run start 0; priority 1..3; selection 3..4; run end 10 *)
  let p =
    Probe.create ~clock:(fake_clock [ 0.0; 1.0; 3.0; 3.0; 4.0; 10.0 ]) ~timed:true
      "timed"
  in
  Probe.start_run p;
  Probe.phase_begin p Probe.Phase.Priority;
  Probe.phase_end p Probe.Phase.Priority;
  Probe.phase_begin p Probe.Phase.Selection;
  Probe.phase_end p Probe.Phase.Selection;
  Probe.finish_run p;
  let r = Probe.report p in
  check_float "wall time" 10.0 r.Probe.wall_seconds;
  (match r.Probe.phases with
  | [ a; b ] ->
    check_bool "priority first" true (a.Probe.phase = Probe.Phase.Priority);
    check_int "priority calls" 1 a.Probe.calls;
    check_float "priority seconds" 2.0 a.Probe.seconds;
    check_bool "selection second" true (b.Probe.phase = Probe.Phase.Selection);
    check_float "selection seconds" 1.0 b.Probe.seconds
  | phases -> Alcotest.failf "expected 2 phases, got %d" (List.length phases));
  let reg = Obs_metrics.create () in
  Probe.to_metrics reg r;
  let prom = Obs_metrics.to_prometheus reg in
  check_bool "exports phase counters" true
    (contains_s prom "timed_phase_priority_calls_total 1");
  check_bool "exports wall gauge" true (contains_s prom "timed_wall_seconds 10")

let test_probe_traced () =
  let t = Trace.create ~clock:(fake_clock [ 0.0; 1.0; 3.0 ]) () in
  let p = Probe.create ~tracer:t "traced" in
  (* an enabled tracer implies timing and shares its clock *)
  Probe.phase_begin p Probe.Phase.Queue;
  Probe.phase_end p Probe.Phase.Queue;
  check_int "phase emitted one span" 1 (Trace.num_events t);
  let jsonl = Trace.to_jsonl t in
  check_bool "span on the phase's row" true
    (contains_s jsonl "\"track\":\"queue maintenance\"")

(* --- every scheduler reports through the same probe --- *)

let probed_algorithms () =
  List.filter_map
    (fun name -> Flb_experiments.Registry.find name)
    [ "FLB"; "ETF"; "MCP"; "FCP"; "HLFET"; "DLS"; "ISH" ]

let test_schedulers_report () =
  let g = Example.fig1 () in
  let m = machine2 () in
  let algos = probed_algorithms () in
  check_int "all seven registered" 7 (List.length algos);
  List.iter
    (fun (a : Flb_experiments.Registry.t) ->
      let s, r = Flb_experiments.Registry.run_with_report a g m in
      check_bool (a.name ^ " schedule valid") true (Schedule.validate s = Ok ());
      check_float
        (a.name ^ " same makespan as the unprobed run")
        (Schedule.makespan (a.run g m))
        (Schedule.makespan s);
      check_int (a.name ^ " one iteration per task") 8 r.Probe.iterations;
      check_bool (a.name ^ " counts queue work") true (r.Probe.task_queue_ops > 0);
      check_bool (a.name ^ " bounded ready set") true
        (r.Probe.peak_ready >= 1 && r.Probe.peak_ready <= 8);
      check_bool (a.name ^ " saw the priority phase") true
        (List.exists
           (fun ph -> ph.Probe.phase = Probe.Phase.Priority)
           r.Probe.phases))
    algos

let test_probe_does_not_change_schedules () =
  (* the probe is observation only: probed and unprobed runs place every
     task identically, for every instrumented scheduler *)
  let p = { layers = 5; max_width = 4; edge_probability = 0.5; ccr = 2.0; seed = 7 } in
  let g = build_dag p in
  let m = Machine.clique ~num_procs:3 in
  List.iter
    (fun (a : Flb_experiments.Registry.t) ->
      let s = a.run g m in
      let s', _ = Flb_experiments.Registry.run_with_report a g m in
      for t = 0 to Taskgraph.num_tasks g - 1 do
        check_int (a.name ^ " same proc") (Schedule.proc s t) (Schedule.proc s' t)
      done)
    (probed_algorithms ())

let qsuite_probe =
  [
    qtest ~count:75 "probed list schedulers count O(V) task-queue work"
      arb_scheduling_case (fun (p, procs) ->
        let g = build_dag p in
        let v = Taskgraph.num_tasks g in
        let m = Machine.clique ~num_procs:procs in
        List.for_all
          (fun name ->
            match Flb_experiments.Registry.find name with
            | None -> false
            | Some a ->
              let _, r =
                Flb_experiments.Registry.run_with_report ~timed:false a g m
              in
              (* each task enters and leaves the ready structure once
                 (FLB also pays for demotions: <= 7 ops per task) *)
              r.Probe.iterations = v
              && r.Probe.task_queue_ops <= 7 * v
              && r.Probe.peak_ready <= Width.exact g)
          [ "FLB"; "ETF"; "MCP"; "FCP"; "HLFET" ]);
  ]

(* --- simulator telemetry --- *)

let test_simulator_telemetry () =
  let g = Example.fig1 () in
  let s = Flb_core.Flb.run g (machine2 ()) in
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let reg = Obs_metrics.create () in
  (match Flb_sim.Simulator.run ~tracer ~metrics:reg s with
  | Error _ -> Alcotest.fail "replay failed"
  | Ok o ->
    let prom = Obs_metrics.to_prometheus reg in
    check_bool "messages counter matches outcome" true
      (contains_s prom (Printf.sprintf "sim_messages_total %d" o.messages));
    check_bool "makespan gauge" true
      (contains_s prom (Printf.sprintf "sim_makespan %g" o.makespan));
    check_bool "latency summary observed" true
      (contains_s prom (Printf.sprintf "sim_message_latency_count %d" o.messages)));
  let jsonl = Trace.to_jsonl tracer in
  (* 8 task spans on the processor rows plus one instant per message *)
  check_bool "task spans on P0" true (contains_s jsonl "\"track\":\"P0\"");
  check_bool "task spans on P1" true (contains_s jsonl "\"track\":\"P1\"");
  check_bool "task names" true (contains_s jsonl "\"name\":\"task 7\"");
  check_bool "send events carry latency" true (contains_s jsonl "\"latency\":")

let test_simulator_port_contention_events () =
  (* a root fanning out to three remote successors through one send port
     must serialize: two sends wait, and the telemetry shows it *)
  let g =
    Taskgraph.of_arrays
      ~comp:[| 1.0; 1.0; 1.0; 1.0 |]
      ~edges:[| (0, 1, 2.0); (0, 2, 2.0); (0, 3, 2.0) |]
  in
  let m = Machine.clique ~num_procs:4 in
  let s = Schedule.create g m in
  Schedule.assign s 0 ~proc:0 ~start:0.0;
  Schedule.assign s 1 ~proc:1 ~start:3.0;
  Schedule.assign s 2 ~proc:2 ~start:3.0;
  Schedule.assign s 3 ~proc:3 ~start:3.0;
  let tracer = Trace.create ~clock:(fun () -> 0.0) () in
  let reg = Obs_metrics.create () in
  match Flb_sim.Simulator.run ~send_ports:1 ~tracer ~metrics:reg s with
  | Error _ -> Alcotest.fail "replay failed"
  | Ok _ ->
    let prom = Obs_metrics.to_prometheus reg in
    check_bool "two sends waited" true (contains_s prom "sim_port_waits_total 2");
    check_bool "wait histogram filled" true (contains_s prom "sim_port_wait_count 2");
    check_bool "trace has port wait instants" true
      (contains_s (Trace.to_jsonl tracer) "\"name\":\"port wait\"")

(* Metrics hygiene: both dynamic engines must expose the steal-failure
   counter and the locality series, so dashboards can rely on the names
   regardless of which engine a deployment runs. *)
let test_runtime_engine_metric_names () =
  let module R = Flb_runtime in
  let g = Example.fig1 () in
  let sched =
    Flb_experiments.Registry.flb.Flb_experiments.Registry.run g (machine2 ())
  in
  let run_with engine =
    let reg = Obs_metrics.create () in
    let config =
      {
        R.Engine.default_config with
        domains = 2;
        unit_ns = 2000.0;
        metrics = Some reg;
      }
    in
    (match engine with
    | `Steal -> ignore (R.Steal.run ~config g)
    | `Affinity -> ignore (R.Affinity.run ~config sched));
    Obs_metrics.to_prometheus reg
  in
  List.iter
    (fun (name, engine) ->
      let prom = run_with engine in
      List.iter
        (fun series ->
          check_bool (name ^ " exposes " ^ series) true (contains_s prom series))
        [
          "rt_failed_steals_total";
          "rt_affinity_hint_hits_total";
          "rt_affinity_hint_misses_total";
          "rt_affinity_hint_rate";
        ])
    [ ("steal", `Steal); ("affinity", `Affinity) ]

let suite =
  [
    Alcotest.test_case "log histogram" `Quick test_log_histogram;
    Alcotest.test_case "log histogram zeros" `Quick test_log_histogram_zeros;
    Alcotest.test_case "trace: null is free" `Quick test_trace_null_free;
    Alcotest.test_case "trace: records spans" `Quick test_trace_records;
    Alcotest.test_case "trace: span survives raise" `Quick test_trace_records_on_raise;
    Alcotest.test_case "trace: chrome golden" `Quick test_trace_chrome_golden;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics survive concurrent domains" `Quick
      test_metrics_multidomain;
    Alcotest.test_case "metrics name sanitizing" `Quick test_metrics_sanitize;
    Alcotest.test_case "metrics escaping" `Quick test_metrics_escaping;
    Alcotest.test_case "metrics JSON reads back strictly" `Quick test_metrics_json_strict;
    Alcotest.test_case "metrics empty histogram" `Quick test_metrics_empty_histogram;
    Alcotest.test_case "trace context: ids" `Quick test_trace_context_ids;
    Alcotest.test_case "trace context: request track" `Quick
      test_trace_context_track;
    Alcotest.test_case "flight recorder: ring wraps" `Quick
      test_flight_recorder_ring;
    Alcotest.test_case "flight recorder: jsonl schema" `Quick
      test_flight_recorder_jsonl;
    Alcotest.test_case "probe: null is inert" `Quick test_probe_null;
    Alcotest.test_case "probe: counting" `Quick test_probe_counting;
    Alcotest.test_case "probe: timed phases" `Quick test_probe_timed_phases;
    Alcotest.test_case "probe: traced phases" `Quick test_probe_traced;
    Alcotest.test_case "schedulers share the probe schema" `Quick
      test_schedulers_report;
    Alcotest.test_case "probe never changes schedules" `Quick
      test_probe_does_not_change_schedules;
    Alcotest.test_case "simulator telemetry" `Quick test_simulator_telemetry;
    Alcotest.test_case "runtime engines expose the locality metric names" `Quick
      test_runtime_engine_metric_names;
    Alcotest.test_case "simulator port contention events" `Quick
      test_simulator_port_contention_events;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      (qsuite_histogram @ qsuite_probe)
