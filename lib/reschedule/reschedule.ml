open! Flb_platform

let run ?(algo = "FLB") snapshot =
  match Registry.find_resumable algo with
  | None ->
    invalid_arg
      (Printf.sprintf "Reschedule.run: unknown or non-resumable scheduler %S (have: %s)"
         algo
         (String.concat ", " (Registry.names Registry.resumable_set)))
  | Some (_, r) ->
    let sched = r.Registry.resume (Snapshot.seed snapshot) in
    assert (Schedule.is_complete sched);
    sched
