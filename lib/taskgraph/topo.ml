module Bitset = Flb_prelude.Bitset

(* Kahn's algorithm with a min-id frontier. The frontier is a binary
   min-heap of task ids in one array: each task enters it once, so V slots
   suffice, and the pass allocates its three arrays and nothing per task.
   Every scheduler's priorities and each streaming round run this pass;
   a functor heap over a growable vector, with a bounds-checked call per
   sift step, made it ten times slower per task. *)
let order g =
  let n = Taskgraph.num_tasks g in
  let pred_off = Taskgraph.Csr.pred_offsets g in
  let succ_off = Taskgraph.Csr.succ_offsets g in
  let succ_id = Taskgraph.Csr.succ_targets g in
  let indeg = Array.init n (fun t -> pred_off.(t + 1) - pred_off.(t)) in
  let frontier = Array.make n 0 in
  let size = ref 0 in
  let push t =
    let i = ref !size in
    incr size;
    while !i > 0 && frontier.((!i - 1) / 2) > t do
      frontier.(!i) <- frontier.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    frontier.(!i) <- t
  in
  let pop () =
    let top = frontier.(0) in
    decr size;
    let last = frontier.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && frontier.(l + 1) < frontier.(l) then l + 1 else l in
      if c < !size && frontier.(c) < last then begin
        frontier.(!i) <- frontier.(c);
        i := c
      end
      else sifting := false
    done;
    frontier.(!i) <- last;
    top
  in
  for t = 0 to n - 1 do
    if indeg.(t) = 0 then push t
  done;
  let out = Array.make n 0 in
  let filled = ref 0 in
  while !size > 0 do
    let t = pop () in
    out.(!filled) <- t;
    incr filled;
    for e = succ_off.(t) to succ_off.(t + 1) - 1 do
      let s = succ_id.(e) in
      indeg.(s) <- indeg.(s) - 1;
      if indeg.(s) = 0 then push s
    done
  done;
  (* Builder guarantees acyclicity, so the sweep always completes. *)
  assert (!filled = n);
  out

let is_topological g a =
  let n = Taskgraph.num_tasks g in
  Array.length a = n
  && begin
       let position = Array.make n (-1) in
       Array.iteri (fun i t -> if t >= 0 && t < n then position.(t) <- i) a;
       Array.for_all (fun p -> p >= 0) position
       &&
       let ok = ref true in
       Taskgraph.iter_edges
         (fun src dst _ -> if position.(src) >= position.(dst) then ok := false)
         g;
       !ok
     end

let depth g =
  let d = Array.make (Taskgraph.num_tasks g) 0 in
  Array.iter
    (fun t ->
      Taskgraph.iter_succs g t (fun s _ ->
          if d.(s) < d.(t) + 1 then d.(s) <- d.(t) + 1))
    (order g);
  d

let num_levels g =
  if Taskgraph.num_tasks g = 0 then 0
  else 1 + Array.fold_left max 0 (depth g)

let level_members g =
  let levels = Array.make (num_levels g) [] in
  let d = depth g in
  (* Iterate downward so each level list ends up sorted ascending. *)
  for t = Taskgraph.num_tasks g - 1 downto 0 do
    levels.(d.(t)) <- t :: levels.(d.(t))
  done;
  levels

let reachable g =
  let n = Taskgraph.num_tasks g in
  let closure = Array.init n (fun _ -> Bitset.create n) in
  let topo = order g in
  (* Sweep in reverse topological order so each successor's closure is
     complete before it is folded into its predecessors. *)
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    Taskgraph.iter_succs g t (fun s _ ->
        Bitset.add closure.(t) s;
        Bitset.union_into ~dst:closure.(t) ~src:closure.(s))
  done;
  closure

let connected closure a b = Bitset.mem closure.(a) b || Bitset.mem closure.(b) a
