open! Flb_taskgraph

type entry = {
  scheduler : string;
  workload : string;
  tasks : int;
  procs : int;
  ccr : float;
  ns_per_task : float;
  bytes_per_task : float;
}

type report = { mode : string; entries : entry list }

let suite_procs = 8

let suite_ccr = 1.0

let measure ~repeats (algo : Registry.t) graph machine =
  let v = max 1 (Taskgraph.num_tasks graph) in
  (* Warm-up run: faults in lazily materialized views so the measured
     runs see only steady-state behaviour. *)
  ignore (algo.Registry.run graph machine);
  (* Both metrics are best-of-N. Time for the usual scheduling-noise
     reasons; allocation because [Gc.allocated_bytes] deltas sporadically
     include a large runtime-internal lump (~900 KB on OCaml 5.1) that is
     unrelated to the scheduler under test. The mutator's own allocation
     is deterministic, so the minimum over repeats is the clean figure. *)
  let best_dt = ref Float.infinity in
  let best_bytes = ref Float.infinity in
  for _ = 1 to repeats do
    let bytes_before = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    ignore (algo.Registry.run graph machine);
    let dt = Unix.gettimeofday () -. t0 in
    let bytes = Gc.allocated_bytes () -. bytes_before in
    if dt < !best_dt then best_dt := dt;
    if bytes < !best_bytes then best_bytes := bytes
  done;
  let ns_per_task = !best_dt *. 1e9 /. float_of_int v in
  let bytes_per_task = !best_bytes /. float_of_int v in
  (ns_per_task, bytes_per_task)

let run ?(quick = false) ?repeats () =
  let repeats = match repeats with Some r -> r | None -> if quick then 3 else 5 in
  let tasks = if quick then 400 else 2000 in
  let machine = Flb_platform.Machine.clique ~num_procs:suite_procs in
  let entries =
    List.concat_map
      (fun workload ->
        let graph = Workload_suite.instance workload ~ccr:suite_ccr ~seed:1 in
        List.map
          (fun (algo : Registry.t) ->
            let ns_per_task, bytes_per_task = measure ~repeats algo graph machine in
            {
              scheduler = algo.Registry.name;
              workload = workload.Workload_suite.name;
              tasks = Taskgraph.num_tasks graph;
              procs = suite_procs;
              ccr = suite_ccr;
              ns_per_task;
              bytes_per_task;
            })
          Registry.paper_set)
      (Workload_suite.fig4_suite ~tasks ())
  in
  { mode = (if quick then "quick" else "full"); entries }

let run_baseline ?repeats () =
  (* The committed baseline carries both suite sizes because bytes/task
     is not size-independent: schedulers with width-dependent per-task
     state (ALAP sets, cluster queues) allocate measurably more per task
     at V≈2000 than at V≈400. The CI smoke run uses the quick suite and
     must diff against quick entries; [check] keys on [tasks] to keep the
     two populations apart. *)
  let full = run ?repeats () in
  let quick = run ~quick:true ?repeats () in
  { mode = "full+quick"; entries = full.entries @ quick.entries }

let render r =
  let table =
    Table.create
      ~header:[ "scheduler"; "workload"; "V"; "P"; "ns/task"; "bytes/task" ]
  in
  List.iter
    (fun e ->
      Table.add_row table
        [
          e.scheduler;
          e.workload;
          string_of_int e.tasks;
          string_of_int e.procs;
          Printf.sprintf "%.1f" e.ns_per_task;
          Printf.sprintf "%.1f" e.bytes_per_task;
        ])
    r.entries;
  Table.render table

(* --- JSON: a strict reader/writer for the subset [to_json] emits. --- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let parse_exn text =
    let pos = ref 0 in
    let len = String.length text in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < len then Some text.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      skip_ws ();
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if
        !pos + String.length word <= len
        && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> begin
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'u' ->
            if !pos + 4 >= len then fail "truncated \\u escape";
            let hex = String.sub text (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | _ -> fail "bad escape");
          advance ();
          loop ()
        end
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' -> parse_obj ()
      | Some '[' -> parse_arr ()
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some c when c = '-' || (c >= '0' && c <= '9') -> Num (parse_number ())
      | _ -> fail "expected a value"
    and parse_obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec loop () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !fields)
      end
    and parse_arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        loop ();
        Arr (List.rev !items)
      end
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing content";
    v

  let field name = function
    | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
    | _ -> raise (Parse_error (Printf.sprintf "expected an object around %S" name))

  let str = function Str s -> s | _ -> raise (Parse_error "expected a string")

  let num = function Num f -> f | _ -> raise (Parse_error "expected a number")
end

(* --- JSON writing --- *)

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"flb-regress/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"mode\": \"%s\",\n" (Json.escape r.mode));
  Buffer.add_string buf "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"scheduler\": \"%s\", \"workload\": \"%s\", \"tasks\": %d, \
            \"procs\": %d, \"ccr\": %g, \"ns_per_task\": %.1f, \
            \"bytes_per_task\": %.1f}%s\n"
           (Json.escape e.scheduler) (Json.escape e.workload) e.tasks e.procs
           e.ccr e.ns_per_task e.bytes_per_task
           (if i = List.length r.entries - 1 then "" else ","))
      )
    r.entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* --- JSON reading --- *)

let of_json text =
  match Json.parse_exn text with
  | exception Json.Parse_error msg -> Error msg
  | json -> (
    match
      let open Json in
      let schema = str (field "schema" json) in
      if schema <> "flb-regress/1" then
        raise (Parse_error (Printf.sprintf "unknown schema %S" schema));
      let mode = str (field "mode" json) in
      let entries =
        match field "entries" json with
        | Arr items ->
          List.map
            (fun item ->
              {
                scheduler = str (field "scheduler" item);
                workload = str (field "workload" item);
                tasks = int_of_float (num (field "tasks" item));
                procs = int_of_float (num (field "procs" item));
                ccr = num (field "ccr" item);
                ns_per_task = num (field "ns_per_task" item);
                bytes_per_task = num (field "bytes_per_task" item);
              })
            items
        | _ -> raise (Parse_error "entries must be an array")
      in
      { mode; entries }
    with
    | exception Json.Parse_error msg -> Error msg
    | r -> Ok r)

(* --- Comparison --- *)

let abs_slack_bytes = 64.0

let check ~baseline ~current ~tolerance =
  let errors = ref [] in
  List.iter
    (fun cur ->
      match
        List.find_opt
          (fun b ->
            b.scheduler = cur.scheduler && b.workload = cur.workload
            && b.procs = cur.procs && b.tasks = cur.tasks)
          baseline.entries
      with
      | None ->
        errors :=
          Printf.sprintf
            "%s/%s/P=%d/V=%d: no baseline entry (regenerate with --regress)"
            cur.scheduler cur.workload cur.procs cur.tasks
          :: !errors
      | Some base ->
        let diff = Float.abs (cur.bytes_per_task -. base.bytes_per_task) in
        let rel = diff /. Float.max 1.0 base.bytes_per_task in
        if rel > tolerance && diff > abs_slack_bytes then
          errors :=
            Printf.sprintf
              "%s/%s/P=%d/V=%d: bytes/task %.1f vs baseline %.1f (%.0f%% > \
               %.0f%% tolerance)"
              cur.scheduler cur.workload cur.procs cur.tasks cur.bytes_per_task
              base.bytes_per_task (rel *. 100.0) (tolerance *. 100.0)
            :: !errors)
    current.entries;
  match List.rev !errors with [] -> Ok () | es -> Error es
