open! Flb_taskgraph

type error =
  | Unknown_task of int
  | Self_edge of int
  | Duplicate_edge of int * int
  | Edge_into_dispatched of int
  | Bad_weight of float
  | Cyclic of int
  | Sealed

let error_to_string = function
  | Unknown_task t -> Printf.sprintf "unknown task %d" t
  | Self_edge t -> Printf.sprintf "self edge on task %d" t
  | Duplicate_edge (s, d) -> Printf.sprintf "duplicate edge %d -> %d" s d
  | Edge_into_dispatched t ->
    Printf.sprintf "task %d is already dispatched; its dependences are final" t
  | Bad_weight w -> Printf.sprintf "weight %g is negative or not finite" w
  | Cyclic t -> Printf.sprintf "edge set is cyclic (through task %d)" t
  | Sealed -> "stream is sealed"

(* The tasks and edges live in a [Taskgraph.Builder], the one store that
   duplicate-checks and cycle-checks a graph. This module adds what the
   trust boundary needs on top: structured errors instead of
   exceptions, the dispatched prefix and the seal. A round dispatches
   every pending task of the streams it merges, so the dispatched tasks
   are the ids below [first_pending], and the edges into the pending
   ones are the edges from [first_pending_edge] on. *)
type t = {
  graph : Taskgraph.Builder.t;
  mutable first_pending : int;
  mutable first_pending_edge : int;
  mutable is_sealed : bool;
}

let create ?(expected_tasks = 16) () =
  {
    graph = Taskgraph.Builder.create ~expected_tasks ();
    first_pending = 0;
    first_pending_edge = 0;
    is_sealed = false;
  }

let num_tasks t = Taskgraph.Builder.num_tasks t.graph

let sealed t = t.is_sealed

let bad_weight w = w < 0.0 || not (Float.is_finite w)

let add_tasks t ~comps =
  if t.is_sealed then Error Sealed
  else
    match Array.find_opt bad_weight comps with
    | Some bad -> Error (Bad_weight bad)
    | None ->
      let first = num_tasks t in
      Array.iter (fun comp -> ignore (Taskgraph.Builder.add_task t.graph ~comp)) comps;
      Ok first

let is_dispatched t i = i >= 0 && i < t.first_pending

let dispatch t =
  t.first_pending <- num_tasks t;
  t.first_pending_edge <- Taskgraph.Builder.num_edges t.graph

let pending t = num_tasks t - t.first_pending

let add_edge t ~src ~dst ~comm =
  let n = num_tasks t in
  if t.is_sealed then Error Sealed
  else if src < 0 || src >= n then Error (Unknown_task src)
  else if dst < 0 || dst >= n then Error (Unknown_task dst)
  else if src = dst then Error (Self_edge src)
  else if bad_weight comm then Error (Bad_weight comm)
  else if Taskgraph.Builder.mem_edge t.graph ~src ~dst then
    Error (Duplicate_edge (src, dst))
  else if is_dispatched t dst then Error (Edge_into_dispatched dst)
  else Ok (Taskgraph.Builder.add_edge t.graph ~src ~dst ~comm)

let check_acyclic t =
  match
    Taskgraph.Builder.find_cycle_after t.graph ~tasks:t.first_pending
      ~edges:t.first_pending_edge
  with
  | None -> Ok ()
  | Some task -> Error (Cyclic task)

let seal t =
  if t.is_sealed then Ok ()
  else
    match check_acyclic t with
    | Ok () ->
      t.is_sealed <- true;
      Ok ()
    | Error _ as e -> e

(* Frontier: the dispatched sources of the pending edges, ascending,
   then the pending tasks. Whole history: every task from 0. Either way
   the tasks keep their relative order, and the edges, all of them into
   tasks merged here, go in insertion order. *)
let merge_into t b ~frontier_only ~frozen =
  let from = if frontier_only then t.first_pending else 0 in
  let first_edge = if frontier_only then t.first_pending_edge else 0 in
  let boundary = Hashtbl.create 16 in
  Taskgraph.Builder.iter_edges t.graph ~first:first_edge (fun src _ _ ->
      if src < from then Hashtbl.replace boundary src (-1));
  let sources = Array.of_seq (Hashtbl.to_seq_keys boundary) in
  Array.sort Int.compare sources;
  let add local =
    let merged =
      Taskgraph.Builder.add_task b ~comp:(Taskgraph.Builder.comp t.graph local)
    in
    if local < t.first_pending then frozen ~local ~merged;
    merged
  in
  Array.iter (fun local -> Hashtbl.replace boundary local (add local)) sources;
  let base = Taskgraph.Builder.num_tasks b in
  for local = from to num_tasks t - 1 do
    ignore (add local)
  done;
  let merged_id local =
    if local >= from then base + local - from else Hashtbl.find boundary local
  in
  Taskgraph.Builder.iter_edges t.graph ~first:first_edge (fun src dst comm ->
      Taskgraph.Builder.add_edge b ~src:(merged_id src) ~dst:(merged_id dst) ~comm);
  base + t.first_pending - from
