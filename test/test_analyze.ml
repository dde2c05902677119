(* lib/runtime Analyze: makespan attribution from JSONL traces. The
   golden test pins the fig1 report exactly — the virtual clock makes
   the trace deterministic, so the realized critical path, slack, and
   per-domain busy/idle totals are contracts, not approximations. *)

open! Flb_taskgraph
open! Flb_platform
open Testutil
module R = Flb_runtime
module E = Flb_experiments
module A = Flb_runtime.Analyze

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* fig1, FLB, P=2, replayed on the virtual clock: the exact run every
   paper figure is calibrated against. *)
let fig1_run () =
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let v = R.Virtual_clock.run_static sched in
  let jsonl =
    A.jsonl_of_times
      ~meta:[ ("engine", "virtual-static"); ("domains", "2") ]
      ~start:v.R.Virtual_clock.start ~finish:v.R.Virtual_clock.finish
      ~exec_domain:v.R.Virtual_clock.exec_domain ()
  in
  (g, sched, jsonl)

let test_fig1_golden () =
  let g, sched, jsonl = fig1_run () in
  let run =
    match A.of_jsonl jsonl with Ok r -> r | Error e -> Alcotest.fail e
  in
  check_int "8 executed spans parsed" 8 (List.length run.A.execs);
  Alcotest.(check (list (pair string string)))
    "meta line parsed"
    [ ("engine", "virtual-static"); ("domains", "2") ]
    run.A.meta;
  let r =
    match A.analyze ~schedule:sched ~graph:g run with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  check_float "makespan" 14.0 r.A.makespan;
  check_int "executed" 8 r.A.executed;
  check_int "total" 8 r.A.total;
  check_bool "communication charged" true r.A.comm_charged;
  Alcotest.(check (list int))
    "realized critical path" [ 0; 3; 2; 6; 7 ] r.A.critical_path;
  (* slack: zero along the CP, positive off it *)
  List.iter
    (fun t ->
      match r.A.per_task.(t) with
      | None -> Alcotest.failf "task %d missing" t
      | Some s ->
        check_float (Printf.sprintf "task %d slack" t) 0.0 s.A.t_slack;
        check_bool (Printf.sprintf "task %d on CP" t) true s.A.t_on_cp)
    r.A.critical_path;
  (match r.A.per_task.(5) with
  | Some s ->
    check_float "task 5 slack" 2.0 s.A.t_slack;
    check_bool "task 5 off CP" false s.A.t_on_cp
  | None -> Alcotest.fail "task 5 missing");
  (* per-domain busy/idle: D0 runs 5 tasks for 12 units, D1 runs 3 for 7 *)
  check_int "two domains" 2 (Array.length r.A.per_domain);
  let d0 = r.A.per_domain.(0) and d1 = r.A.per_domain.(1) in
  check_int "D0 tasks" 5 d0.A.d_tasks;
  check_float "D0 busy" 12.0 d0.A.d_busy;
  check_float "D0 idle" 2.0 d0.A.d_idle;
  check_int "D1 tasks" 3 d1.A.d_tasks;
  check_float "D1 busy" 7.0 d1.A.d_busy;
  check_float "D1 idle" 7.0 d1.A.d_idle;
  (* the virtual replay matches its own prediction exactly: no stragglers *)
  check_bool "no stragglers" true (r.A.stragglers = []);
  (* rendered forms carry the same story *)
  let text = A.render r in
  check_bool "render names the CP" true (contains text "0 -> 3 -> 2 -> 6 -> 7");
  check_bool "render shows D0" true (contains text "D0: 5 tasks");
  let json = A.to_json r in
  check_bool "json makespan" true (contains json "\"makespan\":14");
  check_bool "json CP" true (contains json "\"critical_path\":[0,3,2,6,7]")

let test_stragglers_ranked () =
  (* perturb the realized times: task 6 finishes 3 late, task 1 finishes
     1 late; the ranking must come back worst-first with exact lateness *)
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let v = R.Virtual_clock.run_static sched in
  let start = Array.copy v.R.Virtual_clock.start
  and finish = Array.copy v.R.Virtual_clock.finish in
  finish.(6) <- finish.(6) +. 3.0;
  finish.(1) <- finish.(1) +. 1.0;
  let jsonl =
    A.jsonl_of_times ~start ~finish
      ~exec_domain:v.R.Virtual_clock.exec_domain ()
  in
  let run = Result.get_ok (A.of_jsonl jsonl) in
  match A.analyze ~schedule:sched ~graph:g run with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    match r.A.stragglers with
    | (6, l6) :: (1, l1) :: _ ->
      check_float "worst first" 3.0 l6;
      check_float "then the next" 1.0 l1
    | s -> Alcotest.failf "unexpected straggler list (%d entries)" (List.length s))

let test_comm_charged_inference () =
  (* same placement, but cross-domain gaps squeezed out: the analyzer
     must notice communication was not charged *)
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let v = R.Virtual_clock.run_static sched in
  let run =
    Result.get_ok
      (A.of_jsonl
         (A.jsonl_of_times ~start:v.R.Virtual_clock.start
            ~finish:v.R.Virtual_clock.finish
            ~exec_domain:v.R.Virtual_clock.exec_domain ()))
  in
  let r = Result.get_ok (A.analyze ~graph:g run) in
  check_bool "virtual static charges comm" true r.A.comm_charged;
  (* hand-built two-task run: 0 on D0 finishes at 1, 1 on D1 starts at 1
     despite edge weight 5 — communication visibly skipped *)
  let g2 =
    Taskgraph.of_arrays ~comp:[| 1.0; 1.0 |] ~edges:[| (0, 1, 5.0) |]
  in
  let run2 =
    Result.get_ok
      (A.of_jsonl
         (A.jsonl_of_times ~start:[| 0.0; 1.0 |] ~finish:[| 1.0; 2.0 |]
            ~exec_domain:[| 0; 1 |] ()))
  in
  let r2 = Result.get_ok (A.analyze ~graph:g2 run2) in
  check_bool "uncharged comm detected" false r2.A.comm_charged

(* A real-time trace is in seconds, edge weights in units: the meta
   line's unit_ns makes the analyzer price each message at weight times
   unit_ns / 1e9. The fig1 replay at 200 us per unit, cross-domain
   starts exactly a scaled message after their sources, reads as charged
   and names the same critical path and slack as the unit-time trace. *)
let test_real_time_comm_scaled () =
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let v = R.Virtual_clock.run_static sched in
  let scale = 200_000.0 /. 1e9 in
  let seconds = Array.map (fun x -> x *. scale) in
  let run =
    Result.get_ok
      (A.of_jsonl
         (A.jsonl_of_times ~meta:[ ("unit_ns", "200000") ]
            ~start:(seconds v.R.Virtual_clock.start)
            ~finish:(seconds v.R.Virtual_clock.finish)
            ~exec_domain:v.R.Virtual_clock.exec_domain ()))
  in
  let r = Result.get_ok (A.analyze ~schedule:sched ~graph:g run) in
  check_bool "scaled messages read as charged" true r.A.comm_charged;
  Alcotest.(check (list int)) "same critical path" [ 0; 3; 2; 6; 7 ] r.A.critical_path;
  (match r.A.per_task.(5) with
  | Some s -> check_float "task 5 slack, scaled" (2.0 *. scale) s.A.t_slack
  | None -> Alcotest.fail "task 5 missing");
  check_bool "on time against the scaled prediction" true (r.A.stragglers = [])

let test_partial_run () =
  (* a faulted run that lost task 1: the report says 7 of 8 and keeps a
     coherent critical path over what did execute *)
  let g = Example.fig1 () in
  let sched = E.Registry.flb.E.Registry.run g (Machine.clique ~num_procs:2) in
  let v = R.Virtual_clock.run_static sched in
  let exec_domain = Array.copy v.R.Virtual_clock.exec_domain in
  exec_domain.(1) <- -1;
  let jsonl =
    A.jsonl_of_times ~start:v.R.Virtual_clock.start
      ~finish:v.R.Virtual_clock.finish ~exec_domain ()
  in
  let run = Result.get_ok (A.of_jsonl jsonl) in
  let r = Result.get_ok (A.analyze ~graph:g run) in
  check_int "one task missing" 7 r.A.executed;
  check_int "graph size still reported" 8 r.A.total;
  check_bool "missing task has no stats" true (r.A.per_task.(1) = None);
  check_bool "CP avoids the missing task" false (List.mem 1 r.A.critical_path)

let test_parser_errors () =
  let reject what text =
    match A.of_jsonl text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" what
  in
  reject "broken json" "{\"type\":\"span\",\"track\":\"D0\"";
  reject "span without dur"
    "{\"type\":\"span\",\"track\":\"D0\",\"name\":\"task 1\",\"ts\":0}";
  (* non-domain tracks and unknown line types are skipped, not errors *)
  let ok =
    A.of_jsonl
      ("{\"type\":\"span\",\"track\":\"req-00ff\",\"name\":\"cache\",\"ts\":0,\"dur\":1}\n"
     ^ "{\"type\":\"counter\",\"track\":\"D0\",\"name\":\"ready\",\"ts\":0}\n"
     ^ "{\"type\":\"span\",\"track\":\"D0\",\"name\":\"task 0\",\"ts\":0,\"dur\":2}\n")
  in
  match ok with
  | Error e -> Alcotest.fail e
  | Ok run -> check_int "only the domain span kept" 1 (List.length run.A.execs)

let test_analyze_validation () =
  let g = Example.fig1 () in
  let bad execs = A.analyze ~graph:g { A.execs; marks = []; meta = [] } in
  (match bad [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an empty run");
  (match bad [ { A.task = 99; domain = 0; start = 0.0; finish = 1.0 } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an out-of-range task id");
  match bad [ { A.task = 0; domain = 0; start = 2.0; finish = 1.0 } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a negative duration"

(* Spans with arbitrary finite ts/dur go through Trace.to_jsonl and come
   back from of_jsonl with the same bits, start and finish alike. *)
let qsuite =
  let finite = QCheck.Gen.(map (fun f -> if Float.is_finite f then f else 0.5) float) in
  [
    qtest ~count:300 "trace spans read back bit-identical"
      QCheck.(make Gen.(list (pair finite finite)))
      (fun spans ->
        let trace = Flb_obs.Trace.create ~clock:(fun () -> 0.0) () in
        List.iteri
          (fun i (ts, dur) ->
            Flb_obs.Trace.add_span trace ~track:"D0" ~name:(Printf.sprintf "task %d" i) ~ts ~dur)
          spans;
        let bits = Int64.bits_of_float in
        match A.of_jsonl (Flb_obs.Trace.to_jsonl trace) with
        | Error _ -> false
        | Ok run ->
          List.length run.A.execs = List.length spans
          && List.for_all2
               (fun e (ts, dur) ->
                 bits e.A.start = bits ts && bits e.A.finish = bits (ts +. dur))
               run.A.execs spans);
  ]

(* The team size [flb analyze] predicts at and [analyze] reports: the
   highest domain a span or an instant names, unless the dump's meta
   line counts a domain that recorded nothing. *)
let test_num_domains () =
  let parse meta =
    match
      A.of_jsonl
        (A.jsonl_of_times ~meta ~start:[| 0.0; 0.0; 1.0 |] ~finish:[| 1.0; 1.0; 2.0 |]
           ~exec_domain:[| 0; 2; 1 |] ())
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  check_int "spans on D0-D2" 3 (A.num_domains (parse []));
  check_int "meta counts an idle D3" 4 (A.num_domains (parse [ ("domains", "4") ]));
  check_int "a smaller meta count loses" 3 (A.num_domains (parse [ ("domains", "2") ]));
  let killed =
    { A.mark_name = "killed"; mark_domain = 5; mark_ts = 0.0; mark_args = [] }
  in
  let run = parse [ ("domains", "4") ] in
  check_int "an instant on D5" 6 (A.num_domains { run with A.marks = [ killed ] });
  let g = Taskgraph.of_arrays ~comp:[| 1.0; 1.0; 1.0 |] ~edges:[||] in
  match A.analyze ~graph:g (parse [ ("domains", "4") ]) with
  | Ok r -> check_int "report's domains" 4 (Array.length r.A.per_domain)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "fig1 golden report" `Quick test_fig1_golden;
    Alcotest.test_case "stragglers ranked worst-first" `Quick
      test_stragglers_ranked;
    Alcotest.test_case "communication charging inferred" `Quick
      test_comm_charged_inference;
    Alcotest.test_case "partial (faulted) runs" `Quick test_partial_run;
    Alcotest.test_case "parser rejects broken lines" `Quick test_parser_errors;
    Alcotest.test_case "analyze validates its input" `Quick
      test_analyze_validation;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
  @ [
      Alcotest.test_case "real-time trace: messages scaled by unit_ns" `Quick
        test_real_time_comm_scaled;
      Alcotest.test_case "team size from spans, instants and the meta line" `Quick
        test_num_domains;
    ]
