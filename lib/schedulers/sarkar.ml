open! Flb_taskgraph
module Vec = Flb_prelude.Vec

(* Start times of the clustered graph on unbounded processors: each
   cluster is a serial resource, intra-cluster messages are free. *)
let start_times g ~cluster_of =
  let n = Taskgraph.num_tasks g in
  let st = Array.make n 0.0 in
  let ready = Hashtbl.create 32 in
  (* cluster -> ready time *)
  Array.iter
    (fun t ->
      let c = cluster_of t in
      let cluster_ready = Option.value ~default:0.0 (Hashtbl.find_opt ready c) in
      let data = ref 0.0 in
      Taskgraph.iter_preds g t (fun u w ->
          let pay = if cluster_of u = c then 0.0 else w in
          data := Float.max !data (st.(u) +. Taskgraph.comp g u +. pay));
      st.(t) <- Float.max cluster_ready !data;
      Hashtbl.replace ready c (st.(t) +. Taskgraph.comp g t))
    (Topo.order g);
  st

let parallel_time_of_grouping g ~cluster_of =
  let st = start_times g ~cluster_of in
  let pt = ref 0.0 in
  Array.iteri (fun t s -> pt := Float.max !pt (s +. Taskgraph.comp g t)) st;
  !pt

let cluster g =
  let n = Taskgraph.num_tasks g in
  let cl = Array.init n Fun.id in
  (* explicit member lists make merges (relabeling the smaller side) and
     rollbacks cheap *)
  let members = Array.init n (fun t -> Vec.of_list [ t ]) in
  let edges = ref [] in
  Taskgraph.iter_edges (fun u v w -> edges := (w, u, v) :: !edges) g;
  let edges =
    List.sort
      (fun (w1, u1, v1) (w2, u2, v2) ->
        let c = Float.compare w2 w1 in
        if c <> 0 then c
        else
          let c = Int.compare u1 u2 in
          if c <> 0 then c else Int.compare v1 v2)
      !edges
  in
  let current_pt = ref (parallel_time_of_grouping g ~cluster_of:(fun t -> cl.(t))) in
  List.iter
    (fun (_, u, v) ->
      let cu = cl.(u) and cv = cl.(v) in
      if cu <> cv then begin
        (* merge the smaller cluster into the larger *)
        let small, big =
          if Vec.length members.(cu) <= Vec.length members.(cv) then (cu, cv)
          else (cv, cu)
        in
        let moved = Vec.to_list members.(small) in
        List.iter (fun t -> cl.(t) <- big) moved;
        let pt = parallel_time_of_grouping g ~cluster_of:(fun t -> cl.(t)) in
        if pt <= !current_pt +. 1e-9 then begin
          (* keep the internalization *)
          List.iter (fun t -> Vec.push members.(big) t) moved;
          Vec.clear members.(small);
          current_pt := Float.min !current_pt pt
        end
        else
          (* revert *)
          List.iter (fun t -> cl.(t) <- small) moved
      end)
    edges;
  (* Freeze into the Dsc.clustering shape: dense ids, execution order by
     final start time, tlevel = start time. *)
  let st = start_times g ~cluster_of:(fun t -> cl.(t)) in
  let dense = Hashtbl.create 16 in
  let count = ref 0 in
  let cluster_of = Array.make n (-1) in
  for t = 0 to n - 1 do
    let c = cl.(t) in
    let id =
      match Hashtbl.find_opt dense c with
      | Some id -> id
      | None ->
        let id = !count in
        Hashtbl.add dense c id;
        incr count;
        id
    in
    cluster_of.(t) <- id
  done;
  let buckets = Array.make !count [] in
  for t = n - 1 downto 0 do
    buckets.(cluster_of.(t)) <- t :: buckets.(cluster_of.(t))
  done;
  let clusters =
    Array.map
      (fun tasks ->
        List.sort
          (fun a b ->
            let c = Float.compare st.(a) st.(b) in
            if c <> 0 then c else Int.compare a b)
          tasks)
      buckets
  in
  { Dsc.cluster_of; clusters; tlevel = st }
