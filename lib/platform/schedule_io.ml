open! Flb_taskgraph

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let to_string s =
  let g = Schedule.graph s in
  let n = Taskgraph.num_tasks g in
  for t = 0 to n - 1 do
    if not (Schedule.is_scheduled s t) then
      invalid_arg "Schedule_io.to_string: incomplete schedule"
  done;
  let buf = Buffer.create (64 + (32 * n)) in
  Buffer.add_string buf "# makespan ";
  Text_syntax.add_float buf (Schedule.makespan s);
  Buffer.add_string buf "\nschedule ";
  Text_syntax.add_int buf n;
  Buffer.add_char buf ' ';
  Text_syntax.add_int buf (Schedule.num_procs s);
  Buffer.add_char buf '\n';
  for t = 0 to n - 1 do
    Buffer.add_string buf "assign ";
    Text_syntax.add_int buf t;
    Buffer.add_char buf ' ';
    Text_syntax.add_int buf (Schedule.proc s t);
    Buffer.add_char buf ' ';
    Text_syntax.add_float buf (Schedule.start_time s t);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let of_string g machine text =
  let n = Taskgraph.num_tasks g in
  let p = Machine.num_procs machine in
  let proc = Array.make (max n 1) (-1) in
  let start = Array.make (max n 1) 0.0 in
  let header_seen = ref false in
  let st = [| 0.0 |] (* where [float_field] stores a start time *) in
  let sc = Text_syntax.scanner text in
  while Text_syntax.next_line sc do
    let line = Text_syntax.line sc in
    let fields = Text_syntax.num_fields sc in
    if fields = 0 then ()
    else if fields = 3 && Text_syntax.field_is sc 0 "schedule" then begin
      if !header_seen then fail line "duplicate 'schedule' header";
      header_seen := true;
      if Text_syntax.int_field sc 1 <> Some n then
        fail line "task count %s does not match the graph (%d)"
          (Text_syntax.field sc 1) n;
      if Text_syntax.int_field sc 2 <> Some p then
        fail line "processor count %s does not match the machine (%d)"
          (Text_syntax.field sc 2) p
    end
    else if fields = 4 && Text_syntax.field_is sc 0 "assign" then begin
      if not !header_seen then fail line "'assign' before 'schedule' header";
      match (Text_syntax.int_field sc 1, Text_syntax.int_field sc 2) with
      | Some t, Some pr when Text_syntax.float_field sc 3 st 0 ->
        let st_val = st.(0) in
        if t < 0 || t >= n then fail line "task %d out of range" t;
        if pr < 0 || pr >= p then fail line "processor %d out of range" pr;
        if proc.(t) >= 0 then fail line "duplicate assignment of task %d" t;
        if (not (Float.is_finite st_val)) || st_val < 0.0 then
          fail line "bad start time";
        proc.(t) <- pr;
        start.(t) <- st_val
      | _ -> fail line "expected: assign <task> <proc> <start>"
    end
    else fail line "unknown directive %S" (Text_syntax.field sc 0)
  done;
  let last_line = Text_syntax.line sc in
  if not !header_seen then fail last_line "missing 'schedule' header";
  for t = 0 to n - 1 do
    if proc.(t) < 0 then fail last_line "task %d has no assignment" t
  done;
  (* Replay in topological order so Schedule.assign's readiness invariant
     holds regardless of the claimed start times. *)
  let s = Schedule.create g machine in
  Array.iter
    (fun t -> Schedule.assign s t ~proc:proc.(t) ~start:start.(t))
    (Topo.order g);
  s

let save s ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string s))

let load g machine ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string g machine (In_channel.input_all ic))
