let contract g ~group_of =
  let n = Taskgraph.num_tasks g in
  (* Relabel group ids densely in order of first appearance along the
     task ids, so results are deterministic. *)
  let dense = Hashtbl.create 16 in
  let macro_of = Array.make n (-1) in
  let count = ref 0 in
  for t = 0 to n - 1 do
    let gid = group_of t in
    let m =
      match Hashtbl.find_opt dense gid with
      | Some m -> m
      | None ->
        let m = !count in
        Hashtbl.add dense gid m;
        incr count;
        m
    in
    macro_of.(t) <- m
  done;
  let comp = Array.make !count 0.0 in
  for t = 0 to n - 1 do
    comp.(macro_of.(t)) <- comp.(macro_of.(t)) +. Taskgraph.comp g t
  done;
  (* Sum parallel edges between macro pairs. *)
  let edge_weight = Hashtbl.create 64 in
  Taskgraph.iter_edges
    (fun src dst w ->
      let ms = macro_of.(src) and md = macro_of.(dst) in
      if ms <> md then begin
        let key = (ms, md) in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt edge_weight key) in
        Hashtbl.replace edge_weight key (prev +. w)
      end)
    g;
  let edges =
    Hashtbl.fold (fun (s, d) w acc -> (s, d, w) :: acc) edge_weight []
    |> List.sort compare
  in
  match Taskgraph.of_arrays ~comp ~edges:(Array.of_list edges) with
  | coarse -> (coarse, macro_of)
  | exception Invalid_argument _ ->
    invalid_arg "Coarsen.contract: grouping induces a cycle"

let merge_chains ?(max_grain = infinity) g =
  let n = Taskgraph.num_tasks g in
  (* Union-find over tasks; chains are merged root-ward. *)
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); parent.(x)) in
  let grain = Array.init n (Taskgraph.comp g) in
  let succ_off = Taskgraph.Csr.succ_offsets g and succ_id = Taskgraph.Csr.succ_targets g in
  (* Walk in topological order so each chain accumulates front to back. *)
  Array.iter
    (fun u ->
      if Taskgraph.out_degree g u = 1 then begin
        let v = succ_id.(succ_off.(u)) in
        if Taskgraph.in_degree g v = 1 then begin
          let ru = find u and rv = find v in
          if ru <> rv && grain.(ru) +. grain.(rv) <= max_grain then begin
            parent.(rv) <- ru;
            grain.(ru) <- grain.(ru) +. grain.(rv)
          end
        end
      end)
    (Topo.order g);
  contract g ~group_of:find
