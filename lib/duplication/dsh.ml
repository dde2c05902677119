open! Flb_taskgraph
open! Flb_platform
module Flat_heap = Flb_heap.Flat_heap

let run ?(max_dups_per_task = 8) g machine =
  let s = Dup_schedule.create g machine in
  let blevel = Levels.blevel g in
  let ready = Flat_heap.create ~universe:(Taskgraph.num_tasks g) in
  let enqueue t =
    Flat_heap.add ready ~elt:t ~primary:(-.blevel.(t)) ~secondary:(float_of_int t)
  in
  List.iter enqueue (Taskgraph.entry_tasks g);
  let rec loop () =
    let t = Flat_heap.pop ready in
    if t >= 0 then begin
      let best = ref None in
      for p = 0 to Dup_schedule.num_procs s - 1 do
        let start, dups = Dup_eval.evaluate s g t p ~max_dups:max_dups_per_task in
        match !best with
        | Some (_, best_start, _) when best_start <= start -> ()
        | _ -> best := Some (p, start, dups)
      done;
      (match !best with
      | None -> assert false (* at least one processor exists *)
      | Some (p, start, dups) ->
        List.iter
          (fun (u, du_start) -> ignore (Dup_schedule.place s u ~proc:p ~start:du_start))
          dups;
        ignore (Dup_schedule.place s t ~proc:p ~start));
      Taskgraph.iter_succs g t (fun succ _ ->
          if Dup_schedule.is_ready s succ then enqueue succ);
      loop ()
    end
  in
  loop ();
  s

let schedule_length ?max_dups_per_task g machine =
  Dup_schedule.makespan (run ?max_dups_per_task g machine)
