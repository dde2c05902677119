exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let to_string g =
  let n = Taskgraph.num_tasks g and m = Taskgraph.num_edges g in
  let buf = Buffer.create (64 + (32 * (n + m))) in
  Buffer.add_string buf "# task graph: ";
  Text_syntax.add_int buf n;
  Buffer.add_string buf " tasks, ";
  Text_syntax.add_int buf m;
  Buffer.add_string buf " edges\ntasks ";
  Text_syntax.add_int buf n;
  Buffer.add_char buf '\n';
  for t = 0 to n - 1 do
    Buffer.add_string buf "task ";
    Text_syntax.add_int buf t;
    Buffer.add_char buf ' ';
    Text_syntax.add_float buf (Taskgraph.comp g t);
    Buffer.add_char buf '\n'
  done;
  Taskgraph.iter_edges
    (fun src dst w ->
      Buffer.add_string buf "edge ";
      Text_syntax.add_int buf src;
      Buffer.add_char buf ' ';
      Text_syntax.add_int buf dst;
      Buffer.add_char buf ' ';
      Text_syntax.add_float buf w;
      Buffer.add_char buf '\n')
    g;
  Buffer.contents buf

let of_string text =
  let sc = Text_syntax.scanner text in
  let num_tasks = ref (-1) in
  let comps = ref [||] in
  let comp_seen = ref [||] in
  (* Edges wait in flat arrays until every line has been checked. *)
  let srcs = ref [||] and dsts = ref [||] and ws = ref [||] and num_edges = ref 0 in
  (* Reads field [i] into [a.(j)]. *)
  let parse_float line i what a j =
    if not (Text_syntax.float_field sc i a j && Float.is_finite a.(j)) then
      fail line "bad %s %S" what (Text_syntax.field sc i)
  in
  let parse_int line i what =
    match Text_syntax.int_field sc i with
    | Some v -> v
    | None -> fail line "bad %s %S" what (Text_syntax.field sc i)
  in
  while Text_syntax.next_line sc do
    let line = Text_syntax.line sc in
    let fields = Text_syntax.num_fields sc in
    if fields = 0 then ()
    else if fields = 2 && Text_syntax.field_is sc 0 "tasks" then begin
      if !num_tasks >= 0 then fail line "duplicate 'tasks' line";
      let n = parse_int line 1 "task count" in
      if n < 0 then fail line "negative task count";
      num_tasks := n;
      comps := Array.make (max n 1) 0.0;
      comp_seen := Array.make (max n 1) false
    end
    else if Text_syntax.field_is sc 0 "task" then begin
      if !num_tasks < 0 then fail line "'task' before 'tasks'";
      if fields <> 3 then fail line "expected: task <id> <comp>";
      let id = parse_int line 1 "task id" in
      if id < 0 || id >= !num_tasks then fail line "task id %d out of range" id;
      if !comp_seen.(id) then fail line "duplicate task %d" id;
      !comp_seen.(id) <- true;
      parse_float line 2 "computation cost" !comps id
    end
    else if Text_syntax.field_is sc 0 "edge" then begin
      if !num_tasks < 0 then fail line "'edge' before 'tasks'";
      if fields <> 4 then fail line "expected: edge <src> <dst> <comm>";
      let src = parse_int line 1 "source" in
      let dst = parse_int line 2 "destination" in
      let e = !num_edges in
      if e = Array.length !srcs then begin
        let grow a fill =
          let b = Array.make (max 64 (2 * e)) fill in
          Array.blit a 0 b 0 e;
          b
        in
        srcs := grow !srcs 0;
        dsts := grow !dsts 0;
        ws := grow !ws 0.0
      end;
      parse_float line 3 "communication cost" !ws e;
      !srcs.(e) <- src;
      !dsts.(e) <- dst;
      num_edges := e + 1
    end
    else fail line "unknown directive %S" (Text_syntax.field sc 0)
  done;
  let last_line = Text_syntax.line sc in
  if !num_tasks < 0 then fail last_line "missing 'tasks' line";
  for id = 0 to !num_tasks - 1 do
    if not !comp_seen.(id) then fail last_line "missing 'task %d' line" id
  done;
  let b = Taskgraph.Builder.create ~expected_tasks:!num_tasks () in
  match
    for id = 0 to !num_tasks - 1 do
      ignore (Taskgraph.Builder.add_task b ~comp:!comps.(id))
    done;
    for e = 0 to !num_edges - 1 do
      Taskgraph.Builder.add_edge b ~src:!srcs.(e) ~dst:!dsts.(e) ~comm:!ws.(e)
    done;
    Taskgraph.Builder.build b
  with
  | g -> g
  | exception Invalid_argument msg -> fail last_line "%s" msg

let save g ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
