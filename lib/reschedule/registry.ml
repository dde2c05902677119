open! Flb_taskgraph
open! Flb_platform
module Probe = Flb_obs.Probe
module S = Flb_schedulers

type resumable = { resume : Schedule.t -> Schedule.t; frontier_only : bool }

type t = {
  name : string;
  describe : string;
  run : ?probe:Probe.t -> Taskgraph.t -> Machine.t -> Schedule.t;
  resumable : resumable option;
}

let resumable ~frontier_only resume = Some { resume; frontier_only }

(* Clustering-based and naive algorithms don't report through the probe
   yet; they still run (and time) under it. *)
let unprobed run ?probe:_ g m = run g m

let flb =
  {
    name = "FLB";
    describe = "Fast Load Balancing (this paper); O(V(logW + logP) + E)";
    run = (fun ?probe g m -> Flb_core.Flb.run ?probe g m);
    resumable = resumable ~frontier_only:true Flb_core.Flb.run_into;
  }

let etf =
  {
    name = "ETF";
    describe = "Earliest Task First; O(W(E+V)P)";
    run = S.Etf.run;
    resumable = resumable ~frontier_only:true S.Etf.run_into;
  }

let mcp =
  {
    name = "MCP";
    describe = "Modified Critical Path, random tie-break; O(VlogV + (E+V)P)";
    run = (fun ?probe g m -> S.Mcp.run ?probe g m);
    resumable = resumable ~frontier_only:false S.Mcp.run_into;
  }

let fcp =
  {
    name = "FCP";
    describe = "Fast Critical Path; O(VlogP + E)";
    run = S.Fcp.run;
    resumable = resumable ~frontier_only:true S.Fcp.run_into;
  }

let dsc_llb =
  {
    name = "DSC-LLB";
    describe = "DSC clustering + LLB mapping; O((E+V)logV)";
    run = unprobed (fun g m -> S.Dsc_llb.run g m);
    resumable = None;
  }

let paper_set = [ mcp; etf; dsc_llb; fcp; flb ]

let extended_set =
  paper_set
  @ [
      {
        name = "HLFET";
        describe = "Highest Level First with Estimated Times (extension)";
        run = S.Hlfet.run;
        resumable = resumable ~frontier_only:true S.Hlfet.run_into;
      };
      {
        name = "DLS";
        describe = "Dynamic Level Scheduling (extension)";
        run = S.Dls.run;
        resumable = resumable ~frontier_only:true S.Dls.run_into;
      };
      {
        name = "ISH";
        describe = "Insertion Scheduling Heuristic (extension)";
        run = S.Ish.run;
        resumable = resumable ~frontier_only:true S.Ish.run_into;
      };
      {
        name = "SARKAR-LLB";
        describe = "Sarkar internalization clustering + LLB mapping (extension)";
        run = unprobed (fun g m -> S.Llb.run g m (S.Sarkar.cluster g));
        resumable = None;
      };
      {
        name = "RR";
        describe = "round-robin placement (naive baseline)";
        run = unprobed S.Naive.round_robin;
        resumable = None;
      };
    ]

let resumable_set = List.filter (fun a -> Option.is_some a.resumable) extended_set

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun a -> String.lowercase_ascii a.name = lower) extended_set

let find_resumable name =
  match find name with
  | Some ({ resumable = Some r; _ } as a) -> Some (a, r)
  | Some { resumable = None; _ } | None -> None

let names algos = List.map (fun a -> a.name) algos

let run_with_report ?tracer ?(timed = true) algo g machine =
  let probe = Probe.create ?tracer ~timed algo.name in
  Probe.start_run probe;
  let sched = algo.run ~probe g machine in
  Probe.finish_run probe;
  (sched, Probe.report probe)
