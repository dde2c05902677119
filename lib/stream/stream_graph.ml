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
   exceptions, the dispatch marks and the seal. *)
type t = {
  graph : Taskgraph.Builder.t;
  mutable dispatched : Bytes.t; (* one byte per task; grows with the tasks *)
  mutable n_dispatched : int;
  mutable is_sealed : bool;
}

let create ?(expected_tasks = 16) () =
  {
    graph = Taskgraph.Builder.create ~expected_tasks ();
    dispatched = Bytes.make (max expected_tasks 1) '\000';
    n_dispatched = 0;
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
      let need = first + Array.length comps in
      if need > Bytes.length t.dispatched then begin
        let marks = Bytes.make (max need (2 * Bytes.length t.dispatched)) '\000' in
        Bytes.blit t.dispatched 0 marks 0 first;
        t.dispatched <- marks
      end;
      Array.iter (fun comp -> ignore (Taskgraph.Builder.add_task t.graph ~comp)) comps;
      Ok first

let is_dispatched t i =
  i >= 0 && i < num_tasks t && Bytes.get t.dispatched i <> '\000'

let mark_dispatched t i =
  if i < 0 || i >= num_tasks t then
    invalid_arg "Stream_graph.mark_dispatched: bad task";
  if Bytes.get t.dispatched i = '\000' then begin
    Bytes.set t.dispatched i '\001';
    t.n_dispatched <- t.n_dispatched + 1
  end

let pending t = num_tasks t - t.n_dispatched

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
  match Taskgraph.Builder.find_cycle t.graph with
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

let append_to t b = Taskgraph.Builder.append b ~from:t.graph
