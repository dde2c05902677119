let blevel_with ~comm_counts g =
  let n = Taskgraph.num_tasks g in
  let b = Array.make n 0.0 in
  let topo = Topo.order g in
  let off = Taskgraph.Csr.succ_offsets g in
  let id = Taskgraph.Csr.succ_targets g in
  let w = Taskgraph.Csr.succ_weights g in
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    let best = ref 0.0 in
    for e = off.(t) to off.(t + 1) - 1 do
      let len = (if comm_counts then w.(e) else 0.0) +. b.(id.(e)) in
      if len > !best then best := len
    done;
    b.(t) <- Taskgraph.comp g t +. !best
  done;
  b

let blevel g = blevel_with ~comm_counts:true g

let blevel_comp_only g = blevel_with ~comm_counts:false g

let tlevel g =
  let tl = Array.make (Taskgraph.num_tasks g) 0.0 in
  let topo = Topo.order g in
  Array.iter
    (fun t ->
      Taskgraph.iter_succs g t (fun s w ->
          let len = tl.(t) +. Taskgraph.comp g t +. w in
          if len > tl.(s) then tl.(s) <- len))
    topo;
  tl

(* The maximum of tlevel + blevel is attained at every task on a critical
   path; entry tasks alone suffice since tlevel of an entry is 0 and the
   blevel recursion propagates the full path length. *)
let cp_of_blevel b = Array.fold_left max 0.0 b

let cp_length g = cp_of_blevel (blevel g)

let alap g =
  let b = blevel g in
  let cp = cp_of_blevel b in
  Array.map (fun x -> cp -. x) b

let critical_path g =
  let n = Taskgraph.num_tasks g in
  if n = 0 then []
  else begin
    let b = blevel g in
    let start = ref 0 in
    for t = 1 to n - 1 do
      if
        b.(t) > b.(!start)
        || (b.(t) = b.(!start) && Taskgraph.is_entry g t && not (Taskgraph.is_entry g !start))
      then start := t
    done;
    (* Prefer an entry task achieving the max so the path spans the graph. *)
    for t = n - 1 downto 0 do
      if Taskgraph.is_entry g t && b.(t) >= b.(!start) then start := t
    done;
    (* The successor with the longest remaining path; the first on a tie. *)
    let rec walk t acc =
      let next = ref (-1) and next_len = ref 0.0 in
      Taskgraph.iter_succs g t (fun s w ->
          let len = w +. b.(s) in
          if !next < 0 || len > !next_len then begin
            next := s;
            next_len := len
          end);
      if !next < 0 then List.rev (t :: acc) else walk !next (t :: acc)
    in
    walk !start []
  end
