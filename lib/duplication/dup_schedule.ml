open! Flb_taskgraph
open! Flb_platform
module Vec = Flb_prelude.Vec

type copy = { task : Taskgraph.task; proc : int; start : float; finish : float }

type t = {
  graph : Taskgraph.t;
  machine : Machine.t;
  by_task : copy Vec.t array;
  by_proc : copy Vec.t array;
  prt : float array;
}

let create graph machine =
  let n = Taskgraph.num_tasks graph in
  let p = Machine.num_procs machine in
  {
    graph;
    machine;
    by_task = Array.init n (fun _ -> Vec.create ~capacity:1 ());
    by_proc = Array.init p (fun _ -> Vec.create ());
    prt = Array.make p 0.0;
  }

let graph s = s.graph

let num_procs s = Machine.num_procs s.machine

let check_task s t op =
  if t < 0 || t >= Taskgraph.num_tasks s.graph then
    invalid_arg (Printf.sprintf "Dup_schedule.%s: unknown task %d" op t)

let check_proc s p op =
  if p < 0 || p >= num_procs s then
    invalid_arg (Printf.sprintf "Dup_schedule.%s: unknown processor %d" op p)

let copies s t =
  check_task s t "copies";
  Vec.to_list s.by_task.(t)

let has_copy s t =
  check_task s t "has_copy";
  not (Vec.is_empty s.by_task.(t))

let is_ready s t =
  check_task s t "is_ready";
  (not (has_copy s t))
  &&
  let ready = ref true in
  Taskgraph.iter_preds s.graph t (fun u _ -> if not (has_copy s u) then ready := false);
  !ready

let prt s p =
  check_proc s p "prt";
  s.prt.(p)

(* Best arrival of one predecessor's data on processor [p]. *)
let best_arrival s u ~proc:p w =
  Vec.fold_left
    (fun acc (c : copy) ->
      let delay = Machine.comm_time s.machine ~src:c.proc ~dst:p ~cost:w in
      Float.min acc (c.finish +. delay))
    infinity s.by_task.(u)

let data_ready s t ~proc:p =
  check_task s t "data_ready";
  check_proc s p "data_ready";
  let ready = ref 0.0 in
  Taskgraph.iter_preds s.graph t (fun u w ->
      let arrival = best_arrival s u ~proc:p w in
      if arrival = infinity then
        invalid_arg
          (Printf.sprintf "Dup_schedule.data_ready: predecessor %d of %d unplaced" u t);
      ready := Float.max !ready arrival);
  !ready

let pred_arrival s ~src ~proc:p ~comm =
  check_task s src "pred_arrival";
  check_proc s p "pred_arrival";
  best_arrival s src ~proc:p comm

let has_copy_on s t ~proc:p =
  check_task s t "has_copy_on";
  check_proc s p "has_copy_on";
  Vec.exists (fun (c : copy) -> c.proc = p) s.by_task.(t)

let critical_pred s t ~proc:p =
  check_task s t "critical_pred";
  check_proc s p "critical_pred";
  let best = ref None in
  Taskgraph.iter_preds s.graph t (fun u w ->
      let arrival = best_arrival s u ~proc:p w in
      match !best with
      | Some (_, a) when a >= arrival -> ()
      | _ -> best := Some (u, arrival));
  match !best with
  | Some (u, arrival) when arrival > 0.0 -> Some u
  | Some _ | None -> None

let place s t ~proc:p ~start =
  check_task s t "place";
  check_proc s p "place";
  if (not (Float.is_finite start)) || start < 0.0 then
    invalid_arg (Printf.sprintf "Dup_schedule.place: bad start %g" start);
  if Vec.exists (fun (c : copy) -> c.proc = p) s.by_task.(t) then
    invalid_arg
      (Printf.sprintf "Dup_schedule.place: task %d already has a copy on %d" t p);
  Taskgraph.iter_preds s.graph t (fun u _ ->
      if not (has_copy s u) then
        invalid_arg
          (Printf.sprintf "Dup_schedule.place: predecessor %d of %d unplaced" u t));
  let c = { task = t; proc = p; start; finish = start +. Taskgraph.comp s.graph t } in
  Vec.push s.by_task.(t) c;
  Vec.push s.by_proc.(p) c;
  if c.finish > s.prt.(p) then s.prt.(p) <- c.finish;
  c

let makespan s = Array.fold_left Float.max 0.0 s.prt

let copies_placed s =
  Array.fold_left (fun acc v -> acc + Vec.length v) 0 s.by_task

let validate s =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Taskgraph.num_tasks s.graph in
  for t = 0 to n - 1 do
    if Vec.is_empty s.by_task.(t) then err "task %d has no copy" t
  done;
  if !errors = [] then begin
    (* per-processor exclusivity; zero-duration copies cannot conflict *)
    Array.iteri
      (fun p v ->
        let copies = Vec.to_array v in
        Array.sort
          (fun (a : copy) b -> compare (a.start, a.finish) (b.start, b.finish))
          copies;
        let frontier = ref neg_infinity in
        Array.iter
          (fun (c : copy) ->
            if c.finish > c.start && c.start < !frontier -. 1e-9 then
              err "copy of %d overlaps earlier work on processor %d" c.task p;
            if c.finish > !frontier then frontier := c.finish)
          copies)
      s.by_proc;
    (* message feasibility: every copy's inputs must be available *)
    for t = 0 to n - 1 do
      Vec.iter
        (fun (c : copy) ->
          Taskgraph.iter_preds s.graph t (fun u w ->
              if best_arrival s u ~proc:c.proc w > c.start +. 1e-9 then
                err "copy of %d on %d starts before %d's data arrives" t c.proc u))
        s.by_task.(t)
    done
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
