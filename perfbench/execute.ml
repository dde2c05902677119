(* In-process runtime load: FLB schedules executed on real domains by
   the static engine (placement pinned) and the affinity engine (the
   placement as stealing hints), one after the other on the same
   schedule. One operation is that pair of runs. The weight unit is set
   per schedule so the prediction is a few milliseconds of spin-work. *)

open Flb_platform
module Engine = Flb_runtime.Engine

let now = Unix.gettimeofday

type input = { sched : Schedule.t; config : Engine.config; tasks : int }

let prepare ~domains ~predicted_ms ~seed g =
  let sched = Inputs.algo.Flb_experiments.Registry.run g (Machine.clique ~num_procs:domains) in
  let unit_ns = predicted_ms *. 1e6 /. Schedule.makespan sched in
  {
    sched;
    config = { Engine.default_config with domains; unit_ns; seed };
    tasks = Flb_taskgraph.Taskgraph.num_tasks g;
  }

(* One correct pair of runs. *)
type pair = {
  at : float;  (* completion time *)
  real_ms : float;  (* the two real makespans, summed *)
  call_ms : float;  (* the two engine calls, spawn and join included *)
  tasks : int;
  executed : int;  (* tasks executed by both runs *)
}

type window = {
  start : float;
  seconds : float;
  attempted : int;
  failed : int;
  pairs : pair list;
  static_runs : Engine.outcome list;  (* only with [keep_outcomes] *)
  affinity_runs : Engine.outcome list;
}

(* The benchmark's own memory counts in this workload's peak RSS, so an
   untraced run keeps no per-run outcomes. *)
let run ?(spans = Spans.off) ?(keep_outcomes = false) ~seconds (inputs : input array) =
  let start = now () in
  let deadline = start +. seconds in
  let attempted = ref 0 and failed = ref 0 in
  let pairs = ref [] and static_runs = ref [] and affinity_runs = ref [] in
  let i = ref 0 in
  while now () < deadline do
    let input = inputs.(!i mod Array.length inputs) in
    incr i;
    incr attempted;
    let t0 = now () in
    let s = Flb_runtime.Static.run ~config:input.config input.sched in
    let t1 = now () in
    let a = Flb_runtime.Affinity.run ~config:input.config input.sched in
    let t2 = now () in
    Spans.add spans ~track:"engine" "static" ~t0 ~dur:(t1 -. t0);
    Spans.add spans ~track:"engine" "affinity" ~t0:t1 ~dur:(t2 -. t1);
    let whole o = Engine.complete o && o.Engine.completed = input.tasks in
    if whole s && whole a then begin
      pairs :=
        {
          at = t2;
          real_ms = (s.Engine.real_ns +. a.Engine.real_ns) /. 1e6;
          call_ms = (t2 -. t0) *. 1e3;
          tasks = input.tasks;
          executed = s.Engine.completed + a.Engine.completed;
        }
        :: !pairs;
      if keep_outcomes then begin
        static_runs := s :: !static_runs;
        affinity_runs := a :: !affinity_runs
      end
    end
    else begin
      incr failed;
      Printf.eprintf "engine run incomplete: static %d, affinity %d of %d tasks\n%!"
        s.Engine.completed a.Engine.completed input.tasks
    end
  done;
  {
    start;
    seconds;
    attempted = !attempted;
    failed = !failed;
    pairs = !pairs;
    static_runs = !static_runs;
    affinity_runs = !affinity_runs;
  }

(* Per-engine runtime layer figures, from Engine.outcome. *)
let layer runs =
  let sample f = Sample.of_list (List.map f runs) in
  let busy_share o =
    let busy = Array.fold_left ( +. ) 0.0 o.Engine.per_domain_busy_ns in
    busy /. (float_of_int o.Engine.domains *. Float.max 1.0 o.Engine.real_ns)
  in
  let idle_ms o =
    Array.fold_left ( +. ) 0.0 o.Engine.per_domain_idle_ns
    /. float_of_int o.Engine.domains /. 1e6
  in
  let hint o =
    let r = Engine.hint_hit_rate o in
    if Float.is_nan r then 0.0 else r
  in
  ( Sample.median (sample Engine.ratio),
    [
      ("busy_share", Sample.mean (sample busy_share));
      ("idle_ms", Sample.mean (sample idle_ms));
      ("steals", Sample.mean (sample (fun o -> float_of_int o.Engine.steals)));
      ("hint_hit_rate", Sample.mean (sample hint));
    ] )
