open! Flb_platform

type entry = {
  name : string;
  resume : Schedule.t -> Schedule.t;
  frontier_only : bool;
}

(* Every list scheduler with a fixed-history [run_into] entry point.
   Clustering-based algorithms (DSC, Sarkar) merge tasks before placing
   them and cannot resume from a half-placed schedule, so they are not
   resumable. This registry is deliberately independent of
   [Flb_experiments.Registry]: experiments depend on the runtime, which
   depends on this library. MCP and ISH read placed tasks beyond the
   frontier's direct predecessors (see the interface). *)
let entries =
  let entry ~frontier_only name resume = { name; resume; frontier_only } in
  [
    entry ~frontier_only:true "FLB" (fun s -> Flb_core.Flb.run_into s);
    entry ~frontier_only:true "ETF" (fun s -> Flb_schedulers.Etf.run_into s);
    entry ~frontier_only:false "MCP" (fun s -> Flb_schedulers.Mcp.run_into s);
    entry ~frontier_only:true "FCP" (fun s -> Flb_schedulers.Fcp.run_into s);
    entry ~frontier_only:true "HLFET" (fun s -> Flb_schedulers.Hlfet.run_into s);
    entry ~frontier_only:true "DLS" (fun s -> Flb_schedulers.Dls.run_into s);
    entry ~frontier_only:false "ISH" (fun s -> Flb_schedulers.Ish.run_into s);
  ]

let names = List.map (fun e -> e.name) entries

let find name =
  let needle = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = needle) entries

let run ?(algo = "FLB") snapshot =
  match find algo with
  | None ->
    invalid_arg
      (Printf.sprintf "Reschedule.run: unknown or non-resumable scheduler %S (have: %s)"
         algo (String.concat ", " names))
  | Some e ->
    let sched = Snapshot.seed snapshot in
    let sched = e.resume sched in
    assert (Schedule.is_complete sched);
    sched
