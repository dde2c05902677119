open! Flb_taskgraph
module Json = Flb_prelude.Json

let of_schedule ?(name = "flb-schedule") sched =
  let g = Schedule.graph sched in
  let n = Taskgraph.num_tasks g in
  for t = 0 to n - 1 do
    if not (Schedule.is_scheduled sched t) then
      invalid_arg "Chrome_trace.of_schedule: incomplete schedule"
  done;
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit fmt =
    if !first then first := false else Buffer.add_string buf ",\n";
    Printf.bprintf buf fmt
  in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  (* process metadata: one row per processor *)
  emit "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":%a}}"
    Json.to_buffer (Json.Str name);
  for p = 0 to Schedule.num_procs sched - 1 do
    emit
      "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"processor %d\"}}"
      p p
  done;
  (* one complete event per task *)
  for t = 0 to n - 1 do
    emit
      "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"name\":\"t%d\",\"ts\":%.3f,\"dur\":%.3f,\"args\":%a}"
      (Schedule.proc sched t) t (Schedule.start_time sched t)
      (Taskgraph.comp g t) Json.to_buffer
      (Json.Obj [ ("comp", Json.Num (Taskgraph.comp g t)) ])
  done;
  (* flow arrows for cross-processor messages *)
  let flow_id = ref 0 in
  Taskgraph.iter_edges
    (fun src dst w ->
      if Schedule.proc sched src <> Schedule.proc sched dst then begin
        incr flow_id;
        emit
          "{\"ph\":\"s\",\"pid\":0,\"tid\":%d,\"name\":\"msg\",\"id\":%d,\"ts\":%.3f}"
          (Schedule.proc sched src) !flow_id
          (Schedule.finish_time sched src);
        emit
          "{\"ph\":\"f\",\"pid\":0,\"tid\":%d,\"name\":\"msg\",\"id\":%d,\"ts\":%.3f,\"bp\":\"e\",\"args\":%a}"
          (Schedule.proc sched dst) !flow_id
          (Schedule.finish_time sched src +. w)
          Json.to_buffer
          (Json.Obj [ ("comm", Json.Num w) ])
      end)
    g;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let save ?name sched ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (of_schedule ?name sched))
