open! Flb_taskgraph

(* Tentative evaluation of task [t] on processor [p].

   The baseline start is what plain list scheduling would pay. The
   duplication attempt recursively recomputes critical ancestors at the
   end of [p]'s timeline (root-most first), each within the remaining
   budget; if the resulting start beats the baseline the duplication list
   is returned, otherwise it is discarded. Nothing touches the real
   schedule. *)
let evaluate s g t p ~max_dups =
  let local = Hashtbl.create 8 in
  (* task -> finish of its tentative copy on p *)
  let cursor = ref (Dup_schedule.prt s p) in
  let dups = ref [] in
  let budget = ref max_dups in
  let arrival u w =
    let global = Dup_schedule.pred_arrival s ~src:u ~proc:p ~comm:w in
    match Hashtbl.find_opt local u with
    | Some f -> Float.min global f
    | None -> global
  in
  let data_ready_of task =
    let ready = ref 0.0 in
    Taskgraph.iter_preds g task (fun u w -> ready := Float.max !ready (arrival u w));
    !ready
  in
  let baseline = Float.max !cursor (data_ready_of t) in
  (* The predecessor whose message dominates [task]'s data-ready time and
     that duplication could still help (not yet local to p). *)
  let critical_remote task =
    let best = ref (-1) and best_arrival = ref 0.0 in
    Taskgraph.iter_preds g task (fun u w ->
        let a = arrival u w in
        if !best < 0 || a > !best_arrival then begin
          best := u;
          best_arrival := a
        end);
    let u = !best in
    if u >= 0 && (not (Hashtbl.mem local u)) && not (Dup_schedule.has_copy_on s u ~proc:p)
    then Some u
    else None
  in
  (* Recursively recompute [u] on p: first shrink u's own data-ready time
     by duplicating its critical ancestors, then append u's copy. *)
  let rec make_local u =
    if
      !budget > 0
      && (not (Hashtbl.mem local u))
      && not (Dup_schedule.has_copy_on s u ~proc:p)
    then begin
      let rec shrink () =
        if !budget > 0 && data_ready_of u > !cursor then
          match critical_remote u with
          | Some v ->
            let before = data_ready_of u in
            make_local v;
            if data_ready_of u < before then shrink ()
          | None -> ()
      in
      shrink ();
      if !budget > 0 then begin
        let start = Float.max !cursor (data_ready_of u) in
        let finish = start +. Taskgraph.comp g u in
        Hashtbl.replace local u finish;
        cursor := finish;
        dups := (u, start) :: !dups;
        decr budget
      end
    end
  in
  let rec improve () =
    if !budget > 0 && data_ready_of t > !cursor then
      match critical_remote t with
      | Some u ->
        let before = data_ready_of t in
        make_local u;
        if data_ready_of t < before then improve ()
      | None -> ()
  in
  improve ();
  let with_dups = Float.max !cursor (data_ready_of t) in
  if with_dups < baseline then (with_dups, List.rev !dups) else (baseline, [])
