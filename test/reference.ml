(* Reference implementations of the plain-text formats and the graph
   builder, kept verbatim from before they became single-pass and flat
   (the way [Indexed_heap] is kept as the reference for [Flat_heap]):
   per-line [split_on_char]/[concat_map]/[filter] tokenizers, a
   [Builder] whose per-task [Vec]s box every edge as a tuple, and
   [Printf] renderers. The differential properties in
   [test_differential.ml] hold the library's versions to these.

   The only change is that [Builder.build] returns the bare arrays
   ({!graph}) instead of the library's abstract [Taskgraph.t]. *)

open! Flb_taskgraph
open! Flb_platform
module Vec = Flb_prelude.Vec

type task = int

type graph = {
  comp : float array;
  succ_off : int array;
  succ_id : int array;
  succ_w : float array;
  pred_off : int array;
  pred_id : int array;
  pred_w : float array;
}

(* The bits a library graph exposes, in the same shape. *)
let graph_of (g : Taskgraph.t) =
  {
    comp = Array.init (Taskgraph.num_tasks g) (Taskgraph.comp g);
    succ_off = Taskgraph.Csr.succ_offsets g;
    succ_id = Taskgraph.Csr.succ_targets g;
    succ_w = Taskgraph.Csr.succ_weights g;
    pred_off = Taskgraph.Csr.pred_offsets g;
    pred_id = Taskgraph.Csr.pred_sources g;
    pred_w = Taskgraph.Csr.pred_weights g;
  }

(* Equality on bits: [-0.] differs from [0.]. *)
let same_graph a b =
  let floats x y =
    Array.length x = Array.length y
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         x y
  in
  floats a.comp b.comp && a.succ_off = b.succ_off && a.succ_id = b.succ_id
  && floats a.succ_w b.succ_w && a.pred_off = b.pred_off
  && a.pred_id = b.pred_id && floats a.pred_w b.pred_w

module Builder = struct
  type builder = {
    comps : float Vec.t;
    (* Adjacency accumulated as vectors, frozen to CSR in [build]. *)
    out : (task * float) Vec.t Vec.t;
    into : (task * float) Vec.t Vec.t;
    mutable edges : int;
    mutable built : bool;
  }

  type t = builder

  let create ?(expected_tasks = 16) () =
    {
      comps = Vec.create ~capacity:expected_tasks ();
      out = Vec.create ~capacity:expected_tasks ();
      into = Vec.create ~capacity:expected_tasks ();
      edges = 0;
      built = false;
    }

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
    let id = Vec.length b.comps in
    Vec.push b.comps comp;
    Vec.push b.out (Vec.create ~capacity:2 ());
    Vec.push b.into (Vec.create ~capacity:2 ());
    id

  let num_tasks b = Vec.length b.comps

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
    if Vec.exists (fun (t, _) -> t = dst) (Vec.get b.out src) then
      invalid_arg
        (Printf.sprintf "Taskgraph.Builder.add_edge: duplicate edge %d -> %d" src dst);
    Vec.push (Vec.get b.out src) (dst, comm);
    Vec.push (Vec.get b.into dst) (src, comm);
    b.edges <- b.edges + 1

  (* Freeze one adjacency direction into (offsets, ids, weights). *)
  let freeze_csr n m adj =
    let off = Array.make (n + 1) 0 in
    for t = 0 to n - 1 do
      off.(t + 1) <- off.(t) + Vec.length (Vec.get adj t)
    done;
    let id = Array.make m 0 and w = Array.make m 0.0 in
    for t = 0 to n - 1 do
      let base = off.(t) in
      Vec.iteri
        (fun i (other, weight) ->
          id.(base + i) <- other;
          w.(base + i) <- weight)
        (Vec.get adj t)
    done;
    (off, id, w)

  (* Kahn's algorithm; on failure some task keeps a positive in-degree and
     necessarily lies on (or downstream of) a cycle. *)
  let check_acyclic g =
    let n = Array.length g.comp in
    let indeg = Array.init n (fun t -> g.pred_off.(t + 1) - g.pred_off.(t)) in
    let queue = Queue.create () in
    Array.iteri (fun t d -> if d = 0 then Queue.add t queue) indeg;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let t = Queue.pop queue in
      incr visited;
      for i = g.succ_off.(t) to g.succ_off.(t + 1) - 1 do
        let s = g.succ_id.(i) in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue
      done
    done;
    if !visited <> n then begin
      let on_cycle = ref (-1) in
      Array.iteri (fun t d -> if d > 0 && !on_cycle < 0 then on_cycle := t) indeg;
      invalid_arg
        (Printf.sprintf "Taskgraph.Builder.build: graph has a cycle through task %d"
           !on_cycle)
    end

  let build b =
    check_alive b "build";
    b.built <- true;
    let n = num_tasks b in
    let comp = Vec.to_array b.comps in
    let succ_off, succ_id, succ_w = freeze_csr n b.edges b.out in
    let pred_off, pred_id, pred_w = freeze_csr n b.edges b.into in
    let g = { comp; succ_off; succ_id; succ_w; pred_off; pred_id; pred_w } in
    check_acyclic g;
    g
end

let of_arrays ~comp ~edges =
  let b = Builder.create ~expected_tasks:(Array.length comp) () in
  Array.iter (fun c -> ignore (Builder.add_task b ~comp:c)) comp;
  Array.iter (fun (src, dst, comm) -> Builder.add_edge b ~src ~dst ~comm) edges;
  Builder.build b

module Serial = struct
  exception Parse_error of { line : int; message : string }

  let fail line fmt =
    Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

  let to_string g =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "# task graph: %d tasks, %d edges\n" (Taskgraph.num_tasks g)
         (Taskgraph.num_edges g));
    Buffer.add_string buf (Printf.sprintf "tasks %d\n" (Taskgraph.num_tasks g));
    for t = 0 to Taskgraph.num_tasks g - 1 do
      Buffer.add_string buf (Printf.sprintf "task %d %.17g\n" t (Taskgraph.comp g t))
    done;
    Taskgraph.iter_edges
      (fun src dst w ->
        Buffer.add_string buf (Printf.sprintf "edge %d %d %.17g\n" src dst w))
      g;
    Buffer.contents buf

  let of_string text =
    let lines = String.split_on_char '\n' text in
    let num_tasks = ref (-1) in
    let comps = ref [||] in
    let comp_seen = ref [||] in
    let edges = ref [] in
    let last_line = ref 0 in
    let parse_float line s what =
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> f
      | _ -> fail line "bad %s %S" what s
    in
    let parse_int line s what =
      match int_of_string_opt s with
      | Some i -> i
      | None -> fail line "bad %s %S" what s
    in
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        last_line := line;
        let content =
          match String.index_opt raw '#' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        let fields =
          String.split_on_char ' ' content
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "" && s <> "\r")
        in
        match fields with
        | [] -> ()
        | [ "tasks"; n ] ->
          if !num_tasks >= 0 then fail line "duplicate 'tasks' line";
          let n = parse_int line n "task count" in
          if n < 0 then fail line "negative task count";
          num_tasks := n;
          comps := Array.make (max n 1) 0.0;
          comp_seen := Array.make (max n 1) false
        | "task" :: rest -> begin
          if !num_tasks < 0 then fail line "'task' before 'tasks'";
          match rest with
          | [ id; c ] ->
            let id = parse_int line id "task id" in
            if id < 0 || id >= !num_tasks then fail line "task id %d out of range" id;
            if !comp_seen.(id) then fail line "duplicate task %d" id;
            !comp_seen.(id) <- true;
            !comps.(id) <- parse_float line c "computation cost"
          | _ -> fail line "expected: task <id> <comp>"
        end
        | "edge" :: rest -> begin
          if !num_tasks < 0 then fail line "'edge' before 'tasks'";
          match rest with
          | [ src; dst; w ] ->
            let src = parse_int line src "source" in
            let dst = parse_int line dst "destination" in
            edges := (src, dst, parse_float line w "communication cost") :: !edges
          | _ -> fail line "expected: edge <src> <dst> <comm>"
        end
        | keyword :: _ -> fail line "unknown directive %S" keyword)
      lines;
    if !num_tasks < 0 then fail !last_line "missing 'tasks' line";
    for id = 0 to !num_tasks - 1 do
      if not !comp_seen.(id) then fail !last_line "missing 'task %d' line" id
    done;
    match
      of_arrays
        ~comp:(Array.sub !comps 0 !num_tasks)
        ~edges:(Array.of_list (List.rev !edges))
    with
    | g -> g
    | exception Invalid_argument msg -> fail !last_line "%s" msg
end

module Schedule_io = struct
  let to_string s =
    let g = Schedule.graph s in
    let n = Taskgraph.num_tasks g in
    for t = 0 to n - 1 do
      if not (Schedule.is_scheduled s t) then
        invalid_arg "Schedule_io.to_string: incomplete schedule"
    done;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "# makespan %.17g\nschedule %d %d\n" (Schedule.makespan s) n
         (Schedule.num_procs s));
    for t = 0 to n - 1 do
      Buffer.add_string buf
        (Printf.sprintf "assign %d %d %.17g\n" t (Schedule.proc s t)
           (Schedule.start_time s t))
    done;
    Buffer.contents buf

  exception Parse_error of { line : int; message : string }

  let fail line fmt =
    Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

  let of_string g machine text =
    let n = Taskgraph.num_tasks g in
    let p = Machine.num_procs machine in
    let proc = Array.make (max n 1) (-1) in
    let start = Array.make (max n 1) 0.0 in
    let header_seen = ref false in
    let last_line = ref 0 in
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        last_line := line;
        let content =
          match String.index_opt raw '#' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        let fields =
          String.split_on_char ' ' content
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "" && s <> "\r")
        in
        match fields with
        | [] -> ()
        | [ "schedule"; tasks; procs ] ->
          if !header_seen then fail line "duplicate 'schedule' header";
          header_seen := true;
          if int_of_string_opt tasks <> Some n then
            fail line "task count %s does not match the graph (%d)" tasks n;
          if int_of_string_opt procs <> Some p then
            fail line "processor count %s does not match the machine (%d)" procs p
        | [ "assign"; t; pr; st ] -> begin
          if not !header_seen then fail line "'assign' before 'schedule' header";
          match (int_of_string_opt t, int_of_string_opt pr, float_of_string_opt st) with
          | Some t, Some pr, Some st_val ->
            if t < 0 || t >= n then fail line "task %d out of range" t;
            if pr < 0 || pr >= p then fail line "processor %d out of range" pr;
            if proc.(t) >= 0 then fail line "duplicate assignment of task %d" t;
            if (not (Float.is_finite st_val)) || st_val < 0.0 then
              fail line "bad start time";
            proc.(t) <- pr;
            start.(t) <- st_val
          | _ -> fail line "expected: assign <task> <proc> <start>"
        end
        | keyword :: _ -> fail line "unknown directive %S" keyword)
      (String.split_on_char '\n' text);
    if not !header_seen then fail !last_line "missing 'schedule' header";
    for t = 0 to n - 1 do
      if proc.(t) < 0 then fail !last_line "task %d has no assignment" t
    done;
    (* Replay in topological order so Schedule.assign's readiness invariant
       holds regardless of the claimed start times. *)
    let s = Schedule.create g machine in
    Array.iter
      (fun t -> Schedule.assign s t ~proc:proc.(t) ~start:start.(t))
      (Topo.order g);
    s
end
