open! Flb_taskgraph
open! Flb_platform
open! Flb_prelude

type cell = {
  workload : string;
  ccr : float;
  max_grain : float;
  coarse_tasks : int;
  makespan : float;
  sched_seconds : float;
}

let structures () =
  [
    ("chains", Flb_workloads.Shapes.parallel_chains ~count:40 ~length:50);
    ( "LU",
      Flb_workloads.Lu.structure
        ~matrix_size:(Flb_workloads.Lu.matrix_size_for_tasks 2000) );
  ]

let run ?(procs = 8) ?(ccrs = [ 0.2; 5.0 ]) ?(grains = [ 1.0; 4.0; 16.0; infinity ])
    () =
  let machine = Machine.clique ~num_procs:procs in
  List.concat_map
    (fun (name, structure) ->
      List.concat_map
        (fun ccr ->
          let rng = Rng.create ~seed:(Hashtbl.hash (name, int_of_float (ccr *. 10.))) in
          let g = Flb_workloads.Weights.assign structure ~rng ~ccr in
          List.map
            (fun max_grain ->
              let coarse, _ = Coarsen.merge_chains ~max_grain g in
              let s, cost =
                Cost_exp.time ~repeats:1 (fun () -> Flb_core.Flb.run coarse machine)
              in
              {
                workload = name;
                ccr;
                max_grain;
                coarse_tasks = Taskgraph.num_tasks coarse;
                makespan = Schedule.makespan s;
                sched_seconds = cost.Cost_exp.seconds;
              })
            grains)
        ccrs)
    (structures ())

let render cells =
  let table =
    Table.create
      ~header:[ "workload"; "CCR"; "grain cap"; "V coarse"; "FLB makespan"; "sched [ms]" ]
  in
  let last = ref ("", 0.0) in
  List.iter
    (fun c ->
      if !last <> (c.workload, c.ccr) && fst !last <> "" then Table.add_separator table;
      last := (c.workload, c.ccr);
      Table.add_row table
        [
          c.workload;
          Printf.sprintf "%g" c.ccr;
          (if c.max_grain = infinity then "unlimited" else Printf.sprintf "%g" c.max_grain);
          string_of_int c.coarse_tasks;
          Printf.sprintf "%.1f" c.makespan;
          Printf.sprintf "%.2f" (c.sched_seconds *. 1000.0);
        ])
    cells;
  "Grain packing ahead of FLB (P = 8)\n" ^ Table.render table
