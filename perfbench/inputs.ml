(* Workload inputs, made only from the run's seed: E4 (Fig. 4) suite
   structures — LU, Stencil, Laplace — with seeded random weights at the
   paper's CCRs. The system under test sees only the generated graphs. *)

open Flb_taskgraph
module Suite = Flb_experiments.Workload_suite
module Registry = Flb_experiments.Registry

let algo_name = "FLB"

let algo = Option.get (Registry.find algo_name)

let e4 ~tasks = Array.of_list (Suite.fig4_suite ~tasks ())

let ccrs = Array.of_list Suite.paper_ccrs

(* Graph [i] of a seeded family: structures round-robin, CCR alternating
   every full round of structures, weights seeded per (seed, i). *)
let nth structures ~seed i =
  let w = structures.(i mod Array.length structures) in
  let ccr = ccrs.(i / Array.length structures mod Array.length ccrs) in
  Suite.instance w ~ccr ~seed:((seed * 1_000_003) + i)

(* The reference answer an in-process run of the same Registry algorithm
   gives on the same graph. Serial text carries floats at %.17g, so the
   daemon parses back exactly this graph. *)
let makespan g ~procs =
  Flb_platform.Schedule.makespan
    (algo.Registry.run g (Flb_platform.Machine.clique ~num_procs:procs))

type request = {
  graph : Taskgraph.t;
  text : string;  (* Serial text, what goes on the wire *)
  tasks : int;
  mutable reference : float;  (* expected Scheduled makespan *)
}

let request g ~procs =
  {
    graph = g;
    text = Serial.to_string g;
    tasks = Taskgraph.num_tasks g;
    reference = makespan g ~procs;
  }
