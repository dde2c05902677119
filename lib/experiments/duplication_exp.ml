open! Flb_taskgraph
open! Flb_platform
open! Flb_prelude

type cell = {
  workload : string;
  ccr : float;
  procs : int;
  algorithm : string;
  makespan : float;
  copies : int;
  seconds : float;
}

(* One timed run after the warm-up: the table compares orders of
   magnitude, not percent. *)
let time f =
  let y, cost = Cost_exp.time ~repeats:1 f in
  (y, cost.Cost_exp.seconds)

let structures ~tasks =
  [
    ( "out-tree",
      Flb_workloads.Shapes.out_tree ~branching:3
        ~depth:(int_of_float (ceil (log (float_of_int tasks) /. log 3.0))) );
    ("fork-join", Flb_workloads.Shapes.fork_join ~branches:10 ~stages:(tasks / 11));
    ( "LU",
      Flb_workloads.Lu.structure
        ~matrix_size:(Flb_workloads.Lu.matrix_size_for_tasks tasks) );
  ]

let run ?(ccrs = [ 0.2; 2.0; 5.0 ]) ?(procs = [ 4; 16 ]) ?(tasks = 500) () =
  List.concat_map
    (fun (name, structure) ->
      List.concat_map
        (fun ccr ->
          let rng = Rng.create ~seed:(Hashtbl.hash (name, int_of_float (ccr *. 10.))) in
          let g = Flb_workloads.Weights.assign structure ~rng ~ccr in
          let v = Taskgraph.num_tasks g in
          List.concat_map
            (fun p ->
              let machine = Machine.clique ~num_procs:p in
              let dup_cell label run =
                let s, seconds = time (fun () -> run g machine) in
                {
                  workload = name;
                  ccr;
                  procs = p;
                  algorithm = label;
                  makespan = Flb_duplication.Dup_schedule.makespan s;
                  copies = Flb_duplication.Dup_schedule.copies_placed s;
                  seconds;
                }
              in
              let dsh_cell = dup_cell "DSH" (fun g m -> Flb_duplication.Dsh.run g m) in
              let cpfd_cell =
                dup_cell "CPFD" (fun g m -> Flb_duplication.Cpfd.run g m)
              in
              let plain (algo : Registry.t) =
                let s, seconds = time (fun () -> algo.run g machine) in
                {
                  workload = name;
                  ccr;
                  procs = p;
                  algorithm = algo.name;
                  makespan = Schedule.makespan s;
                  copies = v;
                  seconds;
                }
              in
              dsh_cell :: cpfd_cell
              :: List.map plain [ Registry.flb; Registry.mcp; Registry.etf ])
            procs)
        ccrs)
    (structures ~tasks)

let render cells =
  let buf = Buffer.create 1024 in
  let keys =
    List.sort_uniq compare (List.map (fun c -> (c.workload, c.ccr, c.procs)) cells)
  in
  let table =
    Table.create
      ~header:
        [ "workload"; "CCR"; "P"; "algorithm"; "makespan"; "copies"; "time [ms]" ]
  in
  List.iter
    (fun (w, ccr, p) ->
      List.iter
        (fun c ->
          if c.workload = w && c.ccr = ccr && c.procs = p then
            Table.add_row table
              [
                w;
                Printf.sprintf "%g" ccr;
                string_of_int p;
                c.algorithm;
                Printf.sprintf "%.1f" c.makespan;
                string_of_int c.copies;
                Printf.sprintf "%.2f" (c.seconds *. 1000.0);
              ])
        cells;
      Table.add_separator table)
    keys;
  Buffer.add_string buf (Table.render table);
  Buffer.contents buf
