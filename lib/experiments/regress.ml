open! Flb_taskgraph
module Json = Flb_prelude.Json

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

let run () =
  let machine = Flb_platform.Machine.clique ~num_procs:suite_procs in
  let entries =
    List.concat_map
      (fun workload ->
        let graph = Workload_suite.instance workload ~ccr:suite_ccr ~seed:1 in
        List.map
          (fun (algo : Registry.t) ->
            let c = Cost_exp.measure ~repeats:3 algo graph machine in
            {
              scheduler = algo.Registry.name;
              workload = workload.Workload_suite.name;
              tasks = c.Cost_exp.tasks;
              procs = suite_procs;
              ccr = suite_ccr;
              ns_per_task = c.Cost_exp.ns_per_task;
              bytes_per_task = c.Cost_exp.bytes_per_task;
            })
          Registry.paper_set)
      (Workload_suite.fig4_suite ~tasks:400 ())
  in
  { mode = "quick"; entries }

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

(* --- JSON --- *)

let schema = "flb-regress/1"

(* Per-task figures keep one decimal, as the committed baseline does. *)
let tenth x = Json.Num (Float.round (x *. 10.0) /. 10.0)

let to_json r =
  let entry e =
    Json.Obj
      [
        ("scheduler", Json.Str e.scheduler);
        ("workload", Json.Str e.workload);
        ("tasks", Json.int e.tasks);
        ("procs", Json.int e.procs);
        ("ccr", Json.Num e.ccr);
        ("ns_per_task", tenth e.ns_per_task);
        ("bytes_per_task", tenth e.bytes_per_task);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("mode", Json.Str r.mode);
         ("entries", Json.Arr (List.map entry r.entries));
       ])
  ^ "\n"

exception Bad of string

let field name v =
  match Json.member name v with
  | Some x -> x
  | None -> raise (Bad (Printf.sprintf "missing field %S" name))

let str name v =
  match field name v with
  | Json.Str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S is not a string" name))

let num name v =
  match field name v with
  | Json.Num f -> f
  | _ -> raise (Bad (Printf.sprintf "field %S is not a number" name))

let of_json text =
  let entry item =
    {
      scheduler = str "scheduler" item;
      workload = str "workload" item;
      tasks = int_of_float (num "tasks" item);
      procs = int_of_float (num "procs" item);
      ccr = num "ccr" item;
      ns_per_task = num "ns_per_task" item;
      bytes_per_task = num "bytes_per_task" item;
    }
  in
  match Json.of_string text with
  | Error msg -> Error msg
  | Ok json -> (
    try
      if str "schema" json <> schema then
        raise (Bad (Printf.sprintf "unknown schema %S" (str "schema" json)));
      match field "entries" json with
      | Json.Arr items -> Ok { mode = str "mode" json; entries = List.map entry items }
      | _ -> raise (Bad "entries must be an array")
    with Bad msg -> Error msg)

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
