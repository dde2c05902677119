module Bitset = Flb_prelude.Bitset

let rebuild_edges g ~keep_edge =
  let comp = Array.init (Taskgraph.num_tasks g) (Taskgraph.comp g) in
  let edges = ref [] in
  Taskgraph.iter_edges
    (fun src dst w -> if keep_edge src dst then edges := (src, dst, w) :: !edges)
    g;
  Taskgraph.of_arrays ~comp ~edges:(Array.of_list (List.rev !edges))

let transitive_reduction g =
  let closure = Topo.reachable g in
  (* An edge (u, v) is redundant iff some other successor of u reaches v. *)
  let keep_edge u v =
    let implied = ref false in
    Taskgraph.iter_succs g u (fun s _ ->
        if s <> v && Bitset.mem closure.(s) v then implied := true);
    not !implied
  in
  rebuild_edges g ~keep_edge

let reverse g =
  let comp = Array.init (Taskgraph.num_tasks g) (Taskgraph.comp g) in
  let edges = ref [] in
  Taskgraph.iter_edges (fun src dst w -> edges := (dst, src, w) :: !edges) g;
  Taskgraph.of_arrays ~comp ~edges:(Array.of_list (List.rev !edges))

let induced_subgraph g ~keep =
  let n = Taskgraph.num_tasks g in
  let b = Taskgraph.Builder.create ~expected_tasks:n () in
  let new_of_old = Array.make n (-1) and kept = ref [] in
  for t = 0 to n - 1 do
    if keep t then begin
      new_of_old.(t) <- Taskgraph.Builder.add_task b ~comp:(Taskgraph.comp g t);
      kept := t :: !kept
    end
  done;
  Taskgraph.iter_edges
    (fun src dst comm ->
      if new_of_old.(src) >= 0 && new_of_old.(dst) >= 0 then
        Taskgraph.Builder.add_edge b ~src:new_of_old.(src) ~dst:new_of_old.(dst) ~comm)
    g;
  (Taskgraph.Builder.build b, Array.of_list (List.rev !kept))

type stats = {
  tasks : int;
  edges : int;
  ccr : float;
  levels : int;
  max_in_degree : int;
  max_out_degree : int;
  avg_degree : float;
  width_level_bound : int;
  comp_critical_path : float;
  parallelism : float;
}

let stats g =
  let n = Taskgraph.num_tasks g in
  if n = 0 then invalid_arg "Transform.stats: empty graph";
  let max_in = ref 0 and max_out = ref 0 in
  for t = 0 to n - 1 do
    max_in := max !max_in (Taskgraph.in_degree g t);
    max_out := max !max_out (Taskgraph.out_degree g t)
  done;
  let comp_cp = Array.fold_left Float.max 0.0 (Levels.blevel_comp_only g) in
  {
    tasks = n;
    edges = Taskgraph.num_edges g;
    ccr = Taskgraph.ccr g;
    levels = Topo.num_levels g;
    max_in_degree = !max_in;
    max_out_degree = !max_out;
    avg_degree = float_of_int (Taskgraph.num_edges g) /. float_of_int n;
    width_level_bound = Width.max_level_width g;
    comp_critical_path = comp_cp;
    parallelism = (if comp_cp > 0.0 then Taskgraph.total_comp g /. comp_cp else 1.0);
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "V=%d E=%d CCR=%.2f levels=%d deg(in/out/avg)=%d/%d/%.2f width>=%d compCP=%.2f parallelism=%.2f"
    s.tasks s.edges s.ccr s.levels s.max_in_degree s.max_out_degree s.avg_degree
    s.width_level_bound s.comp_critical_path s.parallelism
