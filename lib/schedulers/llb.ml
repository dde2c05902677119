open! Flb_taskgraph
open! Flb_platform
module Flat_heap = Flb_heap.Flat_heap

type priority = Least_blevel | Greatest_blevel

let run ?(priority = Greatest_blevel) g machine clustering =
  let n = Taskgraph.num_tasks g in
  let p = Machine.num_procs machine in
  let blevel = Levels.blevel g in
  let key1 t =
    match priority with
    | Least_blevel -> blevel.(t)
    | Greatest_blevel -> -.blevel.(t)
  in
  let sched = Schedule.create g machine in
  let cluster_proc = Array.make (Dsc.num_clusters clustering) (-1) in
  (* Ready tasks split by where they may run: one queue per processor for
     tasks of clusters mapped there, one queue for tasks of unmapped
     clusters. A ready task is in exactly one of them, so all P + 1 are
     one heap family. *)
  let ready = Flat_heap.create_family ~universe:n ~count:(p + 1) in
  let mapped_ready = Array.sub ready 0 p in
  let unmapped_ready = ready.(p) in
  let procs = Flat_heap.create ~universe:p in
  for pr = 0 to p - 1 do
    Flat_heap.add procs ~elt:pr ~primary:0.0 ~secondary:0.0
  done;
  let enqueue t =
    let c = clustering.Dsc.cluster_of.(t) in
    let q =
      if cluster_proc.(c) >= 0 then mapped_ready.(cluster_proc.(c))
      else unmapped_ready
    in
    Flat_heap.add q ~elt:t ~primary:(key1 t) ~secondary:(float_of_int t)
  in
  List.iter enqueue (Taskgraph.entry_tasks g);
  let map_cluster c pr =
    cluster_proc.(c) <- pr;
    (* Migrate the cluster's currently-ready tasks to the processor's
       queue. *)
    List.iter
      (fun t ->
        if Flat_heap.mem unmapped_ready t then begin
          Flat_heap.remove unmapped_ready t;
          Flat_heap.add mapped_ready.(pr) ~elt:t ~primary:(key1 t)
            ~secondary:(float_of_int t)
        end)
      clustering.Dsc.clusters.(c)
  in
  let commit t pr =
    let c = clustering.Dsc.cluster_of.(t) in
    if cluster_proc.(c) < 0 then map_cluster c pr;
    Flat_heap.remove mapped_ready.(pr) t;
    (* (a no-op when the task came straight from the unmapped queue) *)
    Flat_heap.remove unmapped_ready t;
    Schedule.assign sched t ~proc:pr ~start:(Schedule.est sched t ~proc:pr);
    Flat_heap.update procs ~elt:pr ~primary:(Schedule.prt sched pr)
      ~secondary:0.0;
    Taskgraph.iter_succs g t (fun succ _ ->
        if Schedule.is_ready sched succ then enqueue succ)
  in
  (* Fallback when the idle-earliest processor has no candidates: take the
     best-priority ready task of any mapped cluster and run it at home.
     The key is (key1, task id); equal keys name the same task, which
     lives in exactly one queue, so the strict comparison is total. *)
  let fallback () =
    let best_t = ref (-1) and best_pr = ref (-1) in
    let best_k = ref 0.0 in
    Array.iteri
      (fun pr heap ->
        let t = Flat_heap.peek heap in
        if t >= 0 then begin
          let k = Flat_heap.primary heap t in
          if !best_t < 0 || k < !best_k || (k = !best_k && t < !best_t) then begin
            best_t := t;
            best_pr := pr;
            best_k := k
          end
        end)
      mapped_ready;
    if !best_t < 0 then assert false (* some ready task always exists mid-run *)
    else commit !best_t !best_pr
  in
  while not (Schedule.is_complete sched) do
    let pr = Flat_heap.peek procs in
    let tm = Flat_heap.peek mapped_ready.(pr) in
    let tu = Flat_heap.peek unmapped_ready in
    if tm < 0 && tu < 0 then fallback ()
    else if tm < 0 then commit tu pr
    else if tu < 0 then commit tm pr
    else if
      (* The earlier starter wins; the mapped task on a tie (it causes no
         new cluster mapping). *)
      Schedule.est sched tu ~proc:pr < Schedule.est sched tm ~proc:pr
    then commit tu pr
    else commit tm pr
  done;
  sched
