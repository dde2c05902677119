open! Flb_taskgraph
open! Flb_platform

type sample = { seconds : float; bytes : float }

let time ~repeats f =
  (* The warm-up faults in one-time state, so the timed runs see only
     steady-state behaviour. [Gc.allocated_bytes] counts the minor heap
     exactly only right after a minor collection, so one brackets each
     run on both sides: the one before keeps what earlier code left there
     out of the delta, the one after (past the clock read) folds in all
     of the run's own minor allocation. *)
  let result = f () in
  let best_seconds = ref Float.infinity in
  let best_bytes = ref Float.infinity in
  for _ = 1 to repeats do
    Gc.minor ();
    let bytes_before = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    Gc.minor ();
    let bytes = Gc.allocated_bytes () -. bytes_before in
    if dt < !best_seconds then best_seconds := dt;
    if bytes < !best_bytes then best_bytes := bytes
  done;
  (result, { seconds = !best_seconds; bytes = !best_bytes })

type cell = {
  tasks : int;
  edges : int;
  procs : int;
  algorithm : string;
  ns_per_task : float;
  bytes_per_task : float;
  task_ops_per_task : float;
  proc_ops_per_task : float;
  peak_ready : int;
}

let measure ~repeats (algo : Registry.t) graph machine =
  let v = Taskgraph.num_tasks graph in
  let per_task x = x /. float_of_int (max 1 v) in
  let _, s = time ~repeats (fun () -> algo.run graph machine) in
  (* The probe counts on a separate, untimed run, so it cannot perturb
     the figures above. *)
  let _, r = Registry.run_with_report ~timed:false algo graph machine in
  {
    tasks = v;
    edges = Taskgraph.num_edges graph;
    procs = Machine.num_procs machine;
    algorithm = algo.name;
    ns_per_task = per_task (s.seconds *. 1e9);
    bytes_per_task = per_task s.bytes;
    task_ops_per_task = per_task (float_of_int r.Flb_obs.Probe.task_queue_ops);
    proc_ops_per_task = per_task (float_of_int r.Flb_obs.Probe.proc_queue_ops);
    peak_ready = r.Flb_obs.Probe.peak_ready;
  }

(* Several graphs under one (algorithm, P): each per-task figure is the
   total over the graphs divided by their total task count. *)
let pool = function
  | [] -> invalid_arg "Cost_exp.pool: no graphs"
  | first :: _ as cells ->
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
    let tasks = sum (fun c -> float_of_int c.tasks) in
    let per_task f = sum (fun c -> f c *. float_of_int c.tasks) /. tasks in
    let mean f = Float.to_int (Float.round (sum f /. float_of_int (List.length cells))) in
    {
      first with
      tasks = mean (fun c -> float_of_int c.tasks);
      edges = mean (fun c -> float_of_int c.edges);
      ns_per_task = per_task (fun c -> c.ns_per_task);
      bytes_per_task = per_task (fun c -> c.bytes_per_task);
      task_ops_per_task = per_task (fun c -> c.task_ops_per_task);
      proc_ops_per_task = per_task (fun c -> c.proc_ops_per_task);
      peak_ready = List.fold_left (fun acc c -> max acc c.peak_ready) 0 cells;
    }

let fig2 ?(algorithms = Registry.paper_set) ?(suite = Workload_suite.fig4_suite ())
    ?(ccrs = Workload_suite.paper_ccrs)
    ?(procs = Workload_suite.paper_procs @ [ 64; 128; 256; 512 ])
    ?(repeats = 3) ?(instances_per_cell = 2) () =
  let graphs =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun ccr -> Workload_suite.instances ~count:instances_per_cell workload ~ccr)
          ccrs)
      suite
  in
  List.concat_map
    (fun p ->
      let machine = Machine.clique ~num_procs:p in
      List.map
        (fun algo -> pool (List.map (fun g -> measure ~repeats algo g machine) graphs))
        algorithms)
    procs

let scaling ?(sizes = [ 250; 500; 1000; 2000; 4000 ]) ?(procs = [ 4; 32 ]) ?(repeats = 3)
    () =
  let algorithms = [ Registry.flb; Registry.fcp; Registry.etf ] in
  List.concat_map
    (fun tasks ->
      let g =
        Workload_suite.instance (Workload_suite.stencil ~tasks ()) ~ccr:1.0 ~seed:1
      in
      List.concat_map
        (fun p ->
          let machine = Machine.clique ~num_procs:p in
          List.map (fun algo -> measure ~repeats algo g machine) algorithms)
        procs)
    sizes

let algorithms cells =
  List.fold_left
    (fun acc c -> if List.mem c.algorithm acc then acc else acc @ [ c.algorithm ])
    [] cells

(* One column per (figure, algorithm), figures outermost; "-" where the
   row has no cell for the algorithm. *)
let columns row_cells names figures =
  List.concat_map
    (fun (_, show) ->
      List.map
        (fun a ->
          match List.find_opt (fun c -> c.algorithm = a) row_cells with
          | Some c -> show c
          | None -> "-")
        names)
    figures

let headers names figures =
  List.concat_map
    (fun (unit, _) -> List.map (fun a -> Printf.sprintf "%s [%s]" a unit) names)
    figures

let time_and_bytes =
  [
    ("ns/task", fun c -> Printf.sprintf "%.0f" c.ns_per_task);
    ("B/task", fun c -> Printf.sprintf "%.0f" c.bytes_per_task);
  ]

let render_fig2 cells =
  let names = algorithms cells in
  let table = Table.create ~header:("P" :: headers names time_and_bytes) in
  List.iter
    (fun p ->
      let row_cells = List.filter (fun c -> c.procs = p) cells in
      Table.add_row table (string_of_int p :: columns row_cells names time_and_bytes))
    (List.sort_uniq compare (List.map (fun c -> c.procs) cells));
  let v = match cells with c :: _ -> c.tasks | [] -> 0 in
  Printf.sprintf "Scheduling cost per task (graphs of mean V = %d)\n" v
  ^ Table.render table

let render_scaling cells =
  let names = algorithms cells in
  let figures =
    time_and_bytes
    @ [
        ( "ops/task",
          fun c ->
            if c.task_ops_per_task > 0.0 then Printf.sprintf "%.2f" c.task_ops_per_task
            else "-" );
      ]
  in
  let table =
    Table.create ~header:([ "V"; "E"; "P" ] @ headers names figures @ [ "peak ready" ])
  in
  List.iter
    (fun (v, p) ->
      let row_cells = List.filter (fun c -> c.tasks = v && c.procs = p) cells in
      let edges = match row_cells with c :: _ -> c.edges | [] -> 0 in
      let peak = List.fold_left (fun acc c -> max acc c.peak_ready) 0 row_cells in
      Table.add_row table
        ([ string_of_int v; string_of_int edges; string_of_int p ]
        @ columns row_cells names figures
        @ [ (if peak > 0 then string_of_int peak else "-") ]))
    (List.sort_uniq compare (List.map (fun c -> (c.tasks, c.procs)) cells));
  "Scaling with V (Stencil graphs, CCR 1.0)\n" ^ Table.render table

let to_csv cells =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "tasks,edges,procs,algorithm,ns_per_task,bytes_per_task,task_ops_per_task,\
     proc_ops_per_task,peak_ready\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%.1f,%.1f,%.3f,%.3f,%d\n" c.tasks c.edges c.procs
           c.algorithm c.ns_per_task c.bytes_per_task c.task_ops_per_task
           c.proc_ops_per_task c.peak_ready))
    cells;
  Buffer.contents buf
