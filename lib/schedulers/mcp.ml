open! Flb_taskgraph
open! Flb_platform
open! Flb_prelude

type tie_rule = Random_tie of int | Task_id_tie | Descendant_tie

(* Original MCP tie-break: compare the ascending lists of ALAP times of a
   task and all its descendants, lexicographically. Materializing the
   lists is O(V^2) in the worst case, which is why the paper's lower-cost
   variant exists; this rule is opt-in. *)
let descendant_ranks g alap =
  let n = Taskgraph.num_tasks g in
  let lists = Array.make n [] in
  let topo = Topo.order g in
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    let merged = ref [] in
    Taskgraph.iter_succs g t (fun s _ ->
        merged := List.merge Float.compare lists.(s) !merged);
    lists.(t) <- List.merge Float.compare [ alap.(t) ] !merged
  done;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> List.compare Float.compare lists.(a) lists.(b)) order;
  let rank = Array.make n 0.0 in
  Array.iteri (fun r t -> rank.(t) <- float_of_int r) order;
  rank

let tie_values ?(tie = Random_tie 1) g alap =
  let n = Taskgraph.num_tasks g in
  match tie with
  | Task_id_tie -> Array.init n float_of_int
  | Random_tie seed ->
    let rng = Rng.create ~seed in
    Array.init n (fun _ -> Rng.float rng 1.0)
  | Descendant_tie -> descendant_ranks g alap

let alap_order ?tie g =
  let alap = Levels.alap g in
  let tb = tie_values ?tie g alap in
  let order = Array.init (Taskgraph.num_tasks g) Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare alap.(a) alap.(b) in
      if c <> 0 then c
      else
        let c = Float.compare tb.(a) tb.(b) in
        if c <> 0 then c else Int.compare a b)
    order;
  order

let run_into ?tie ?(insertion = false) ?(probe = Flb_obs.Probe.null) sched =
  let g = Schedule.graph sched in
  Flb_obs.Probe.phase_begin probe Flb_obs.Probe.Phase.Priority;
  let alap = Levels.alap g in
  let tb = tie_values ?tie g alap in
  Flb_obs.Probe.phase_end probe Flb_obs.Probe.Phase.Priority;
  let rule =
    if insertion then List_common.earliest_proc_insertion sched
    else List_common.earliest_proc
  in
  let select_proc sched t =
    (* Both placement rules scan every processor. *)
    Flb_obs.Probe.proc_queue_ops probe (Schedule.num_procs sched);
    rule sched t
  in
  List_common.run_into ~probe
    ~priority:(fun t -> alap.(t))
    ~tie:(fun t -> tb.(t))
    ~select_proc sched

let run ?tie ?insertion ?probe g machine =
  run_into ?tie ?insertion ?probe (Schedule.create g machine)

let schedule_length ?tie ?insertion g machine =
  Schedule.makespan (run ?tie ?insertion g machine)
