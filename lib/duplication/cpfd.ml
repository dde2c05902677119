open! Flb_taskgraph
open! Flb_platform
module Bitset = Flb_prelude.Bitset

type node_class = Cpn | Ibn | Obn

let classify g =
  let n = Taskgraph.num_tasks g in
  let classes = Array.make n Obn in
  let cpn_set = Bitset.create (max n 1) in
  List.iter
    (fun t ->
      classes.(t) <- Cpn;
      Bitset.add cpn_set t)
    (Levels.critical_path g);
  if n > 0 then begin
    let closure = Topo.reachable g in
    for t = 0 to n - 1 do
      if classes.(t) = Obn && Bitset.inter_cardinal closure.(t) cpn_set > 0 then
        classes.(t) <- Ibn
    done
  end;
  classes

let run ?(max_dups_per_task = 8) g machine =
  let s = Dup_schedule.create g machine in
  let blevel = Levels.blevel g in
  let place_best t =
    let best = ref None in
    for p = 0 to Dup_schedule.num_procs s - 1 do
      let start, dups = Dup_eval.evaluate s g t p ~max_dups:max_dups_per_task in
      match !best with
      | Some (_, best_start, _) when best_start <= start -> ()
      | _ -> best := Some (p, start, dups)
    done;
    match !best with
    | None -> assert false (* at least one processor exists *)
    | Some (p, start, dups) ->
      List.iter
        (fun (u, du_start) -> ignore (Dup_schedule.place s u ~proc:p ~start:du_start))
        dups;
      ignore (Dup_schedule.place s t ~proc:p ~start)
  in
  (* Schedule [t] after recursively scheduling its unscheduled ancestors,
     most critical (largest bottom level) first. *)
  let rec ensure t =
    if not (Dup_schedule.has_copy s t) then begin
      let pending = ref [] in
      Taskgraph.iter_preds g t (fun u _ ->
          if not (Dup_schedule.has_copy s u) then pending := u :: !pending);
      List.iter ensure
        (List.sort (fun a b -> compare (-.blevel.(a), a) (-.blevel.(b), b)) !pending);
      place_best t
    end
  in
  (* Critical-path nodes in path order, then everything else by priority. *)
  List.iter ensure (Levels.critical_path g);
  let rest = List.init (Taskgraph.num_tasks g) Fun.id in
  List.iter ensure
    (List.sort (fun a b -> compare (-.blevel.(a), a) (-.blevel.(b), b)) rest);
  s
