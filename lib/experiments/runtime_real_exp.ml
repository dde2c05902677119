open! Flb_taskgraph
module Runtime = Flb_runtime

type row = {
  workload : string;
  tasks : int;
  domains : int;
  predicted_units : float;
  static_units : float;
  steal_units : float;
  affinity_units : float;
  static_ratio : float;
  steal_vs_static : float;
  affinity_vs_steal : float;
  hint_hit_rate : float;
  steals : int;
}

let run ?(algorithm = Registry.flb) ?suite ?(ccr = 0.2)
    ?(domains_list = [ 2; 4; 8 ]) ?(unit_ns = 20_000.0) () =
  let suite =
    match suite with Some s -> s | None -> Workload_suite.fig4_suite ~tasks:300 ()
  in
  List.concat_map
    (fun (w : Workload_suite.workload) ->
      let graph = Workload_suite.instance w ~ccr ~seed:1 in
      List.map
        (fun domains ->
          let machine = Flb_platform.Machine.clique ~num_procs:domains in
          let sched = algorithm.Registry.run graph machine in
          let config = { Runtime.Engine.default_config with domains; unit_ns } in
          let st = Runtime.Static.run ~config sched in
          let dy = Runtime.Steal.run ~config graph in
          let af = Runtime.Affinity.run ~config sched in
          {
            workload = w.Workload_suite.name;
            tasks = Taskgraph.num_tasks graph;
            domains;
            predicted_units = st.Runtime.Engine.predicted_units;
            static_units = st.Runtime.Engine.real_units;
            steal_units = dy.Runtime.Engine.real_units;
            affinity_units = af.Runtime.Engine.real_units;
            static_ratio = Runtime.Engine.ratio st;
            steal_vs_static =
              dy.Runtime.Engine.real_units /. st.Runtime.Engine.real_units;
            affinity_vs_steal =
              af.Runtime.Engine.real_units /. dy.Runtime.Engine.real_units;
            hint_hit_rate = Runtime.Engine.hint_hit_rate af;
            steals = dy.Runtime.Engine.steals;
          })
        domains_list)
    suite

let render rows =
  let table =
    Table.create
      ~header:
        [
          "workload";
          "V";
          "domains";
          "predicted";
          "static";
          "steal";
          "affinity";
          "static/pred";
          "steal/static";
          "affinity/steal";
          "hint rate";
          "steals";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.workload;
          string_of_int r.tasks;
          string_of_int r.domains;
          Printf.sprintf "%.1f" r.predicted_units;
          Printf.sprintf "%.1f" r.static_units;
          Printf.sprintf "%.1f" r.steal_units;
          Printf.sprintf "%.1f" r.affinity_units;
          Printf.sprintf "%.3f" r.static_ratio;
          Printf.sprintf "%.3f" r.steal_vs_static;
          Printf.sprintf "%.3f" r.affinity_vs_steal;
          Printf.sprintf "%.2f" r.hint_hit_rate;
          string_of_int r.steals;
        ])
    rows;
  Table.render table

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "workload,tasks,domains,predicted_units,static_units,steal_units,affinity_units,static_ratio,steal_vs_static,affinity_vs_steal,hint_hit_rate,steals\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%g,%g,%g,%g,%g,%g,%g,%g,%d\n" r.workload r.tasks
           r.domains r.predicted_units r.static_units r.steal_units
           r.affinity_units r.static_ratio r.steal_vs_static r.affinity_vs_steal
           r.hint_hit_rate r.steals))
    rows;
  Buffer.contents buf

(* Non-finite ratios (a zero-division, an empty hint count) become JSON
   null, as in [Resched_exp.rows_json]. *)
let json_num f = if Float.is_finite f then Printf.sprintf "%g" f else "null"

let to_json ?resched rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  (* Schema 3 = schema 2 plus the affinity-engine columns
     (affinity_units, affinity_vs_steal, hint_hit_rate); the "resched"
     array stays optional. *)
  Buffer.add_string buf "  \"schema\": \"flb-runtime/3\",\n";
  (match resched with
  | None -> ()
  | Some rj -> Buffer.add_string buf (Printf.sprintf "  \"resched\": %s,\n" rj));
  Buffer.add_string buf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"tasks\": %d, \"domains\": %d, \
            \"predicted_units\": %g, \"static_units\": %g, \"steal_units\": %g, \
            \"affinity_units\": %s, \"static_ratio\": %g, \"steal_vs_static\": \
            %g, \"affinity_vs_steal\": %s, \"hint_hit_rate\": %s, \"steals\": \
            %d}%s\n"
           (Regress.Json.escape r.workload)
           r.tasks r.domains r.predicted_units r.static_units r.steal_units
           (json_num r.affinity_units)
           r.static_ratio r.steal_vs_static
           (json_num r.affinity_vs_steal)
           (json_num r.hint_hit_rate) r.steals
           (if i = List.length rows - 1 then "" else ","))
      )
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
