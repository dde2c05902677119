type task = int

(* Edges live in compressed-sparse-row form: for each direction, a flat
   id array and a parallel weight array, indexed by an offset array of
   length [n + 1]. The O(E) sweeps of every scheduler stream these flat
   arrays. *)
type t = {
  comp : float array;
  succ_off : int array; (* length n+1 *)
  succ_id : int array; (* length E, grouped by source, insertion order *)
  succ_w : float array; (* parallel to succ_id *)
  pred_off : int array;
  pred_id : int array; (* grouped by destination, insertion order *)
  pred_w : float array;
}

let num_tasks g = Array.length g.comp

let num_edges g = Array.length g.succ_id

let check_task g t op =
  if t < 0 || t >= num_tasks g then
    invalid_arg (Printf.sprintf "Taskgraph.%s: unknown task %d" op t)

let comp g t =
  check_task g t "comp";
  g.comp.(t)

let out_degree g t =
  check_task g t "out_degree";
  g.succ_off.(t + 1) - g.succ_off.(t)

let in_degree g t =
  check_task g t "in_degree";
  g.pred_off.(t + 1) - g.pred_off.(t)

let iter_succs g t f =
  check_task g t "iter_succs";
  for i = g.succ_off.(t) to g.succ_off.(t + 1) - 1 do
    f g.succ_id.(i) g.succ_w.(i)
  done

let iter_preds g t f =
  check_task g t "iter_preds";
  for i = g.pred_off.(t) to g.pred_off.(t + 1) - 1 do
    f g.pred_id.(i) g.pred_w.(i)
  done

module Csr = struct
  let succ_offsets g = g.succ_off

  let succ_targets g = g.succ_id

  let succ_weights g = g.succ_w

  let pred_offsets g = g.pred_off

  let pred_sources g = g.pred_id

  let pred_weights g = g.pred_w
end

let is_entry g t = in_degree g t = 0

let is_exit g t = out_degree g t = 0

let entry_tasks g =
  List.filter (is_entry g) (List.init (num_tasks g) Fun.id)

let exit_tasks g =
  List.filter (is_exit g) (List.init (num_tasks g) Fun.id)

let iter_edges f g =
  for src = 0 to num_tasks g - 1 do
    for i = g.succ_off.(src) to g.succ_off.(src + 1) - 1 do
      f src g.succ_id.(i) g.succ_w.(i)
    done
  done

let comm g ~src ~dst =
  check_task g src "comm";
  check_task g dst "comm";
  let result = ref None in
  for i = g.succ_off.(src) to g.succ_off.(src + 1) - 1 do
    if g.succ_id.(i) = dst && !result = None then result := Some g.succ_w.(i)
  done;
  !result

let total_comp g = Array.fold_left ( +. ) 0.0 g.comp

let total_comm g = Array.fold_left ( +. ) 0.0 g.succ_w

let ccr g =
  if num_tasks g = 0 then invalid_arg "Taskgraph.ccr: empty graph";
  if num_edges g = 0 then 0.0
  else begin
    let avg_comm = total_comm g /. float_of_int (num_edges g) in
    let avg_comp = total_comp g /. float_of_int (num_tasks g) in
    avg_comm /. avg_comp
  end

module Builder = struct
  (* Forward star: the edges live in flat growable arrays in insertion
     order, each chained to the previous edge out of its source, so
     [add_edge] boxes nothing and finds a duplicate by walking one
     source's chain. [build] counting-sorts them into the CSR arrays. *)
  type builder = {
    mutable comps : float array;
    mutable last_out : int array; (* per task: its newest out-edge, or -1 *)
    mutable num_tasks : int;
    mutable src : int array;
    mutable dst : int array;
    mutable weight : float array;
    (* per edge: the previous out-edge of its source, or -1 *)
    mutable prev_out : int array;
    mutable num_edges : int;
    mutable built : bool;
  }

  type t = builder

  let create ?(expected_tasks = 16) () =
    let cap = max 1 expected_tasks in
    {
      comps = Array.make cap 0.0;
      last_out = Array.make cap (-1);
      num_tasks = 0;
      src = Array.make cap 0;
      dst = Array.make cap 0;
      weight = Array.make cap 0.0;
      prev_out = Array.make cap 0;
      num_edges = 0;
      built = false;
    }

  let grow a len fill =
    let b = Array.make (2 * len) fill in
    Array.blit a 0 b 0 len;
    b

  let check_alive b op =
    if b.built then invalid_arg ("Taskgraph.Builder." ^ op ^ ": builder already built")

  let check_weight w what op =
    if not (Float.is_finite w) || w < 0.0 then
      invalid_arg
        (Printf.sprintf "Taskgraph.Builder.%s: %s must be finite and non-negative"
           op what)

  let add_task b ~comp =
    check_alive b "add_task";
    check_weight comp "computation cost" "add_task";
    let id = b.num_tasks in
    if id = Array.length b.comps then begin
      b.comps <- grow b.comps id 0.0;
      b.last_out <- grow b.last_out id (-1)
    end;
    b.comps.(id) <- comp;
    b.last_out.(id) <- -1;
    b.num_tasks <- id + 1;
    id

  let num_tasks b = b.num_tasks

  let rec has_edge_to b e dst =
    e >= 0 && (b.dst.(e) = dst || has_edge_to b b.prev_out.(e) dst)

  let mem_edge b ~src ~dst =
    src >= 0 && src < b.num_tasks && has_edge_to b b.last_out.(src) dst

  (* Stores an edge that has passed every check and chains it to its
     source's newest out-edge. *)
  let push_edge b ~src ~dst ~comm =
    let e = b.num_edges in
    if e = Array.length b.src then begin
      b.src <- grow b.src e 0;
      b.dst <- grow b.dst e 0;
      b.weight <- grow b.weight e 0.0;
      b.prev_out <- grow b.prev_out e 0
    end;
    b.src.(e) <- src;
    b.dst.(e) <- dst;
    b.weight.(e) <- comm;
    b.prev_out.(e) <- b.last_out.(src);
    b.last_out.(src) <- e;
    b.num_edges <- e + 1

  let add_edge b ~src ~dst ~comm =
    check_alive b "add_edge";
    check_weight comm "communication cost" "add_edge";
    let n = num_tasks b in
    if src < 0 || src >= n then
      invalid_arg (Printf.sprintf "Taskgraph.Builder.add_edge: unknown source %d" src);
    if dst < 0 || dst >= n then
      invalid_arg
        (Printf.sprintf "Taskgraph.Builder.add_edge: unknown destination %d" dst);
    if src = dst then
      invalid_arg (Printf.sprintf "Taskgraph.Builder.add_edge: self edge on %d" src);
    if mem_edge b ~src ~dst then
      invalid_arg
        (Printf.sprintf "Taskgraph.Builder.add_edge: duplicate edge %d -> %d" src dst);
    push_edge b ~src ~dst ~comm

  let comp b t =
    if t < 0 || t >= b.num_tasks then
      invalid_arg (Printf.sprintf "Taskgraph.Builder.comp: unknown task %d" t);
    b.comps.(t)

  let num_edges b = b.num_edges

  let iter_edges b ~first f =
    for e = first to b.num_edges - 1 do
      f b.src.(e) b.dst.(e) b.weight.(e)
    done

  (* Kahn's algorithm over the forward star, from task [tasks] and edge
     [edges] on. The tasks it cannot consume are exactly those on or
     downstream of a cycle, whatever order it consumes the rest in, so
     the lowest of them is a deterministic witness. A task below [tasks]
     has no edge in from the suffix, so it lies on no cycle: its edges
     out count as consumed, and the suffix leaves unconsumed what the
     whole graph would. Each task enters the FIFO at most once, so it is
     a plain array. *)
  let find_cycle_after b ~tasks ~edges =
    let n = b.num_tasks - tasks in
    let indeg = Array.make n 0 in
    for e = edges to b.num_edges - 1 do
      if b.src.(e) >= tasks then
        indeg.(b.dst.(e) - tasks) <- indeg.(b.dst.(e) - tasks) + 1
    done;
    let queue = Array.make n 0 and tail = ref 0 in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then begin
        queue.(!tail) <- i;
        incr tail
      end
    done;
    let head = ref 0 in
    while !head < !tail do
      let i = queue.(!head) in
      incr head;
      let e = ref b.last_out.(tasks + i) in
      while !e >= 0 do
        let s = b.dst.(!e) - tasks in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then begin
          queue.(!tail) <- s;
          incr tail
        end;
        e := b.prev_out.(!e)
      done
    done;
    if !tail = n then None
    else begin
      let i = ref 0 in
      while indeg.(!i) = 0 do
        incr i
      done;
      Some (tasks + !i)
    end

  let find_cycle b = find_cycle_after b ~tasks:0 ~edges:0

  (* Counting sort of the edges by [key] (their source or destination)
     into (offsets, other endpoints, weights); a stable sort, so each
     task's slots keep insertion order. *)
  let freeze_csr b ~key ~other =
    let n = b.num_tasks and m = b.num_edges in
    let off = Array.make (n + 1) 0 in
    for e = 0 to m - 1 do
      let k = key.(e) + 1 in
      off.(k) <- off.(k) + 1
    done;
    for t = 1 to n do
      off.(t) <- off.(t) + off.(t - 1)
    done;
    let next = Array.sub off 0 n in
    let id = Array.make m 0 and w = Array.make m 0.0 in
    for e = 0 to m - 1 do
      let k = key.(e) in
      let slot = next.(k) in
      id.(slot) <- other.(e);
      w.(slot) <- b.weight.(e);
      next.(k) <- slot + 1
    done;
    (off, id, w)

  let build b =
    check_alive b "build";
    b.built <- true;
    (match find_cycle b with
    | Some t ->
      invalid_arg
        (Printf.sprintf "Taskgraph.Builder.build: graph has a cycle through task %d" t)
    | None -> ());
    let comp = Array.sub b.comps 0 b.num_tasks in
    let succ_off, succ_id, succ_w = freeze_csr b ~key:b.src ~other:b.dst in
    let pred_off, pred_id, pred_w = freeze_csr b ~key:b.dst ~other:b.src in
    { comp; succ_off; succ_id; succ_w; pred_off; pred_id; pred_w }
end

let of_arrays ~comp ~edges =
  let b = Builder.create ~expected_tasks:(Array.length comp) () in
  Array.iter (fun c -> ignore (Builder.add_task b ~comp:c)) comp;
  Array.iter (fun (src, dst, comm) -> Builder.add_edge b ~src ~dst ~comm) edges;
  Builder.build b

let pp ppf g =
  Format.fprintf ppf "task graph: %d tasks, %d edges, CCR %.3f" (num_tasks g)
    (num_edges g)
    (if num_tasks g = 0 then 0.0 else ccr g)

let pp_full ppf g =
  pp ppf g;
  for t = 0 to num_tasks g - 1 do
    Format.fprintf ppf "@\n  t%d comp=%g" t g.comp.(t);
    iter_succs g t (fun d w -> Format.fprintf ppf " ->t%d(%g)" d w)
  done
