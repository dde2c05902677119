open! Flb_taskgraph
module Flat_heap = Flb_heap.Flat_heap
module Vec = Flb_prelude.Vec

type clustering = {
  cluster_of : int array;
  clusters : Taskgraph.task list array;
  tlevel : float array;
}

let cluster g =
  let n = Taskgraph.num_tasks g in
  let blevel = Levels.blevel g in
  let pred_off = Taskgraph.Csr.pred_offsets g in
  let pred_id = Taskgraph.Csr.pred_sources g in
  let pred_w = Taskgraph.Csr.pred_weights g in
  let succ_off = Taskgraph.Csr.succ_offsets g in
  let succ_id = Taskgraph.Csr.succ_targets g in
  let cluster_of = Array.make n (-1) in
  let tlevel = Array.make n 0.0 in
  let sequences : Taskgraph.task Vec.t Vec.t = Vec.create () in
  let cluster_ready : float Vec.t = Vec.create () in
  let new_cluster t start =
    let c = Vec.length sequences in
    Vec.push sequences (Vec.create ());
    Vec.push cluster_ready 0.0;
    cluster_of.(t) <- c;
    Vec.push (Vec.get sequences c) t;
    Vec.set cluster_ready c (start +. Taskgraph.comp g t);
    c
  in
  let append_to_cluster t c start =
    cluster_of.(t) <- c;
    Vec.push (Vec.get sequences c) t;
    Vec.set cluster_ready c (start +. Taskgraph.comp g t)
  in
  (* Free tasks (all predecessors examined), max tlevel + blevel first. *)
  let free = Flat_heap.create ~universe:n in
  let unexamined_preds = Array.init n (Taskgraph.in_degree g) in
  (* A free task's tlevel: the last arrival of its predecessors' data
     with every edge kept (full cost). *)
  let make_free t =
    let tl = ref 0.0 in
    for i = pred_off.(t) to pred_off.(t + 1) - 1 do
      let p = pred_id.(i) in
      tl := Float.max !tl (tlevel.(p) +. Taskgraph.comp g p +. pred_w.(i))
    done;
    tlevel.(t) <- !tl;
    Flat_heap.add free ~elt:t ~primary:(-.(!tl +. blevel.(t)))
      ~secondary:(float_of_int t)
  in
  for t = 0 to n - 1 do
    if unexamined_preds.(t) = 0 then make_free t
  done;
  let rec loop () =
    let t = Flat_heap.pop free in
    if t >= 0 then begin
      let tl_own = tlevel.(t) in
      (* Dominant predecessor: the first whose message arrives last. *)
      let dominant = ref (-1) and dominant_arrival = ref 0.0 in
      for i = pred_off.(t) to pred_off.(t + 1) - 1 do
        let p = pred_id.(i) in
        let arrival = tlevel.(p) +. Taskgraph.comp g p +. pred_w.(i) in
        if !dominant < 0 || arrival > !dominant_arrival then begin
          dominant := p;
          dominant_arrival := arrival
        end
      done;
      if !dominant < 0 then ignore (new_cluster t 0.0)
      else begin
        let c = cluster_of.(!dominant) in
        let merged_start = ref (Vec.get cluster_ready c) in
        for i = pred_off.(t) to pred_off.(t + 1) - 1 do
          let p = pred_id.(i) in
          let pay = if cluster_of.(p) = c then 0.0 else pred_w.(i) in
          merged_start := Float.max !merged_start (tlevel.(p) +. Taskgraph.comp g p +. pay)
        done;
        if !merged_start <= tl_own then begin
          tlevel.(t) <- !merged_start;
          append_to_cluster t c !merged_start
        end
        else ignore (new_cluster t tl_own)
      end;
      for i = succ_off.(t) to succ_off.(t + 1) - 1 do
        let s = succ_id.(i) in
        unexamined_preds.(s) <- unexamined_preds.(s) - 1;
        if unexamined_preds.(s) = 0 then make_free s
      done;
      loop ()
    end
  in
  loop ();
  {
    cluster_of;
    clusters = Vec.to_array (Vec.map Vec.to_list sequences);
    tlevel;
  }

let num_clusters c = Array.length c.clusters

let parallel_time g c =
  let span = ref 0.0 in
  Array.iteri
    (fun t tl -> span := Float.max !span (tl +. Taskgraph.comp g t))
    c.tlevel;
  !span

let validate g c =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Taskgraph.num_tasks g in
  let seen = Array.make n false in
  Array.iteri
    (fun cid tasks ->
      let cursor = ref neg_infinity in
      List.iter
        (fun t ->
          if seen.(t) then err "task %d appears in two clusters" t;
          seen.(t) <- true;
          if c.cluster_of.(t) <> cid then err "task %d has wrong cluster id" t;
          if c.tlevel.(t) < !cursor -. 1e-9 then
            err "cluster %d overlaps at task %d" cid t;
          cursor := c.tlevel.(t) +. Taskgraph.comp g t)
        tasks)
    c.clusters;
  for t = 0 to n - 1 do
    if not seen.(t) then err "task %d missing from all clusters" t
  done;
  Taskgraph.iter_edges
    (fun u v w ->
      let pay = if c.cluster_of.(u) = c.cluster_of.(v) then 0.0 else w in
      if c.tlevel.(v) < c.tlevel.(u) +. Taskgraph.comp g u +. pay -. 1e-9 then
        err "edge %d->%d violated in clustering" u v)
    g;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
