open! Flb_taskgraph
open Testutil

let test_builder_basics () =
  let g = small_graph () in
  check_int "tasks" 4 (Taskgraph.num_tasks g);
  check_int "edges" 4 (Taskgraph.num_edges g);
  check_float "comp" 3.0 (Taskgraph.comp g 1);
  check_int "out degree" 2 (Taskgraph.out_degree g 0);
  check_int "in degree" 2 (Taskgraph.in_degree g 3);
  Alcotest.(check (list int)) "entries" [ 0 ] (Taskgraph.entry_tasks g);
  Alcotest.(check (list int)) "exits" [ 3 ] (Taskgraph.exit_tasks g);
  check_bool "is_entry" true (Taskgraph.is_entry g 0);
  check_bool "is_exit" false (Taskgraph.is_exit g 1)

let test_comm_lookup () =
  let g = small_graph () in
  Alcotest.(check (option (float 0.0))) "edge cost" (Some 4.0)
    (Taskgraph.comm g ~src:0 ~dst:2);
  Alcotest.(check (option (float 0.0))) "absent edge" None
    (Taskgraph.comm g ~src:1 ~dst:2)

let test_aggregates () =
  let g = small_graph () in
  check_float "total comp" 7.0 (Taskgraph.total_comp g);
  check_float "total comm" 8.0 (Taskgraph.total_comm g);
  (* avg comm = 2, avg comp = 7/4 *)
  check_floatish "ccr" (2.0 /. (7.0 /. 4.0)) (Taskgraph.ccr g)

let test_builder_rejects_cycle () =
  let b = Taskgraph.Builder.create () in
  let a = Taskgraph.Builder.add_task b ~comp:1.0 in
  let c = Taskgraph.Builder.add_task b ~comp:1.0 in
  Taskgraph.Builder.add_edge b ~src:a ~dst:c ~comm:1.0;
  Taskgraph.Builder.add_edge b ~src:c ~dst:a ~comm:1.0;
  check_raises_invalid "cycle" (fun () -> ignore (Taskgraph.Builder.build b))

let test_builder_rejects_bad_edges () =
  let b = Taskgraph.Builder.create () in
  let a = Taskgraph.Builder.add_task b ~comp:1.0 in
  let c = Taskgraph.Builder.add_task b ~comp:1.0 in
  check_raises_invalid "self edge" (fun () ->
      Taskgraph.Builder.add_edge b ~src:a ~dst:a ~comm:1.0);
  check_raises_invalid "unknown dst" (fun () ->
      Taskgraph.Builder.add_edge b ~src:a ~dst:9 ~comm:1.0);
  check_raises_invalid "negative comm" (fun () ->
      Taskgraph.Builder.add_edge b ~src:a ~dst:c ~comm:(-1.0));
  check_raises_invalid "nan comm" (fun () ->
      Taskgraph.Builder.add_edge b ~src:a ~dst:c ~comm:Float.nan);
  Taskgraph.Builder.add_edge b ~src:a ~dst:c ~comm:1.0;
  check_raises_invalid "duplicate edge" (fun () ->
      Taskgraph.Builder.add_edge b ~src:a ~dst:c ~comm:2.0)

let test_builder_rejects_bad_tasks () =
  let b = Taskgraph.Builder.create () in
  check_raises_invalid "negative comp" (fun () ->
      ignore (Taskgraph.Builder.add_task b ~comp:(-2.0)));
  check_raises_invalid "infinite comp" (fun () ->
      ignore (Taskgraph.Builder.add_task b ~comp:Float.infinity))

let test_builder_single_use () =
  let b = Taskgraph.Builder.create () in
  ignore (Taskgraph.Builder.add_task b ~comp:1.0);
  ignore (Taskgraph.Builder.build b);
  check_raises_invalid "build twice" (fun () -> ignore (Taskgraph.Builder.build b));
  check_raises_invalid "add after build" (fun () ->
      ignore (Taskgraph.Builder.add_task b ~comp:1.0))

let test_empty_graph () =
  let g = Taskgraph.of_arrays ~comp:[||] ~edges:[||] in
  check_int "no tasks" 0 (Taskgraph.num_tasks g);
  check_raises_invalid "ccr of empty" (fun () -> ignore (Taskgraph.ccr g))

let test_unknown_task_errors () =
  let g = small_graph () in
  check_raises_invalid "comp of unknown" (fun () -> ignore (Taskgraph.comp g 99));
  check_raises_invalid "succs of negative" (fun () ->
      Taskgraph.iter_succs g (-1) (fun _ _ -> ()))

let test_printers () =
  let g = small_graph () in
  let short = Format.asprintf "%a" Taskgraph.pp g in
  check_bool "pp mentions counts" true
    (String.length short > 0
    &&
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
      loop 0
    in
    contains "4 tasks" short && contains "4 edges" short);
  let full = Format.asprintf "%a" Taskgraph.pp_full g in
  check_bool "pp_full lists every task" true
    (List.length (String.split_on_char 't' full) > 4)

let test_iter_edges_complete () =
  let g = small_graph () in
  let count = ref 0 and sum = ref 0.0 in
  Taskgraph.iter_edges (fun _ _ w -> incr count; sum := !sum +. w) g;
  check_int "edge count" 4 !count;
  check_float "weight sum" 8.0 !sum

(* A test-local [(task * float) array] adjacency, sliced from the CSR
   arrays. *)
let slice off id w t =
  Array.init (off.(t + 1) - off.(t)) (fun i -> (id.(off.(t) + i), w.(off.(t) + i)))

let succs g =
  Taskgraph.Csr.(slice (succ_offsets g) (succ_targets g) (succ_weights g))

let preds g =
  Taskgraph.Csr.(slice (pred_offsets g) (pred_sources g) (pred_weights g))

(* Reference implementations over the tuple-array adjacency; the library
   versions stream the CSR arrays. The two must produce byte-identical
   results — same visiting order, same float accumulation order. *)
let ref_topo_order g =
  let n = Taskgraph.num_tasks g in
  let indeg = Array.init n (fun t -> Array.length (preds g t)) in
  let module Iset = Set.Make (Int) in
  let frontier = ref Iset.empty in
  for t = 0 to n - 1 do
    if indeg.(t) = 0 then frontier := Iset.add t !frontier
  done;
  let out = Array.make n 0 in
  let filled = ref 0 in
  while not (Iset.is_empty !frontier) do
    let t = Iset.min_elt !frontier in
    frontier := Iset.remove t !frontier;
    out.(!filled) <- t;
    incr filled;
    Array.iter
      (fun (s, _) ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then frontier := Iset.add s !frontier)
      (succs g t)
  done;
  out

let ref_blevel g =
  let n = Taskgraph.num_tasks g in
  let b = Array.make n 0.0 in
  let topo = ref_topo_order g in
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    let best = ref 0.0 in
    Array.iter
      (fun (s, w) ->
        let len = w +. b.(s) in
        if len > !best then best := len)
      (succs g t);
    b.(t) <- Taskgraph.comp g t +. !best
  done;
  b

let ref_tlevel g =
  let tl = Array.make (Taskgraph.num_tasks g) 0.0 in
  Array.iter
    (fun t ->
      Array.iter
        (fun (s, w) ->
          let len = tl.(t) +. Taskgraph.comp g t +. w in
          if len > tl.(s) then tl.(s) <- len)
        (succs g t))
    (ref_topo_order g);
  tl

(* A valid builder input: weighted tasks and distinct edges between
   distinct tasks. Half the inputs point every edge to a higher id; the
   rest point edges either way, so they may close a cycle. *)
let arb_builder_input =
  let input =
    QCheck.Gen.(
      int_range 0 9 >>= fun n ->
      array_size (return n) (float_bound_inclusive 10.0) >>= fun comps ->
      let task = int_range 0 (max 0 (n - 1)) in
      pair bool (list_size (int_range 0 (2 * n)) (triple task task (float_bound_inclusive 10.0)))
      >|= fun (forward, edges) ->
      let seen = Hashtbl.create 16 in
      let edges =
        List.filter_map
          (fun (s, d, w) ->
            let s, d = if forward && s > d then (d, s) else (s, d) in
            if s = d || Hashtbl.mem seen (s, d) then None
            else begin
              Hashtbl.add seen (s, d) ();
              Some (s, d, w)
            end)
          edges
      in
      (comps, edges))
  in
  let show (comps, edges) =
    Printf.sprintf "%d tasks [%s]" (Array.length comps)
      (String.concat "; " (List.map (fun (s, d, _) -> Printf.sprintf "%d->%d" s d) edges))
  in
  QCheck.make
    ~print:(fun (x, y) -> show x ^ " then " ^ show y)
    QCheck.Gen.(pair input input)

let builder_of (comps, edges) =
  let b = Taskgraph.Builder.create () in
  Array.iter (fun comp -> ignore (Taskgraph.Builder.add_task b ~comp)) comps;
  List.iter (fun (src, dst, comm) -> Taskgraph.Builder.add_edge b ~src ~dst ~comm) edges;
  b

(* What [build] makes of a builder: every array of the graph, or the
   error message. *)
let built b =
  match Taskgraph.Builder.build b with
  | g ->
    Ok
      ( Array.init (Taskgraph.num_tasks g) (Taskgraph.comp g),
        Taskgraph.Csr.(succ_offsets g, succ_targets g, succ_weights g),
        Taskgraph.Csr.(pred_offsets g, pred_sources g, pred_weights g) )
  | exception Invalid_argument msg -> Error msg

let builder_functions_agree ((comps, edges), y) =
  let n = Array.length comps in
  let b = builder_of (comps, edges) in
  let members_ok =
    List.for_all
      (fun src ->
        List.for_all
          (fun dst ->
            Taskgraph.Builder.mem_edge b ~src ~dst
            = List.exists (fun (s, d, _) -> s = src && d = dst) edges)
          (List.init (n + 2) (fun i -> i - 1)))
      (List.init (n + 2) (fun i -> i - 1))
  in
  (* [find_cycle] first: it must leave the builder open for [build]. *)
  let cycle = Taskgraph.Builder.find_cycle b in
  let cycle_ok =
    match (cycle, built b) with
    | None, Ok _ -> true
    | Some t, Error msg ->
      msg = Printf.sprintf "Taskgraph.Builder.build: graph has a cycle through task %d" t
    | _ -> false
  in
  (* Append a suffix after [b]'s tasks and edges: y's tasks and edges
     shifted past them, and each y edge mirrored in from a prefix task.
     No suffix edge enters the prefix, so the suffix's own cycle check
     names y's witness, and the whole graph's when the prefix is
     acyclic. *)
  let whole = builder_of (comps, edges) in
  let y_comps, y_edges = y in
  Array.iter (fun comp -> ignore (Taskgraph.Builder.add_task whole ~comp)) y_comps;
  let added = ref [] in
  List.iter
    (fun (s, d, comm) ->
      List.iter
        (fun (src, dst) ->
          if not (Taskgraph.Builder.mem_edge whole ~src ~dst) then begin
            Taskgraph.Builder.add_edge whole ~src ~dst ~comm;
            added := (src, dst, comm) :: !added
          end)
        ((s + n, d + n) :: (if n > 0 then [ (s mod n, d + n) ] else [])))
    y_edges;
  let first = List.length edges in
  let listed = ref [] in
  Taskgraph.Builder.iter_edges whole ~first (fun s d w -> listed := (s, d, w) :: !listed);
  let all_comps = Array.append comps y_comps in
  let accessors_ok =
    !listed = !added
    && Taskgraph.Builder.num_edges whole = first + List.length !added
    && Array.for_all Fun.id
         (Array.mapi (fun t c -> Taskgraph.Builder.comp whole t = c) all_comps)
  in
  let suffix = Taskgraph.Builder.find_cycle_after whole ~tasks:n ~edges:first in
  let suffix_ok =
    suffix = Option.map (( + ) n) (Taskgraph.Builder.find_cycle (builder_of y))
    && (cycle <> None || Taskgraph.Builder.find_cycle whole = suffix)
  in
  members_ok && cycle_ok && accessors_ok && suffix_ok

let qsuite =
  [
    qtest "CSR arrays and iterators agree" arb_dag_params (fun p ->
        let g = build_dag p in
        let n = Taskgraph.num_tasks g in
        let ok =
          ref
            (Array.length (Taskgraph.Csr.succ_offsets g) = n + 1
            && Array.length (Taskgraph.Csr.pred_offsets g) = n + 1)
        in
        for t = 0 to n - 1 do
          let streamed = ref [] in
          Taskgraph.iter_succs g t (fun s w -> streamed := (s, w) :: !streamed);
          if Array.of_list (List.rev !streamed) <> succs g t then ok := false;
          streamed := [];
          Taskgraph.iter_preds g t (fun s w -> streamed := (s, w) :: !streamed);
          if Array.of_list (List.rev !streamed) <> preds g t then ok := false
        done;
        !ok);
    qtest "Topo and Levels are byte-identical across representations"
      arb_dag_params (fun p ->
        let g = build_dag p in
        ref_topo_order g = Topo.order g
        && ref_blevel g = Levels.blevel g
        && ref_tlevel g = Levels.tlevel g);
    qtest "random DAGs have consistent degrees" arb_dag_params (fun p ->
        let g = build_dag p in
        let out_sum = ref 0 and in_sum = ref 0 in
        for t = 0 to Taskgraph.num_tasks g - 1 do
          out_sum := !out_sum + Taskgraph.out_degree g t;
          in_sum := !in_sum + Taskgraph.in_degree g t
        done;
        !out_sum = Taskgraph.num_edges g && !in_sum = Taskgraph.num_edges g);
    qtest "pred/succ adjacency mirror" arb_dag_params (fun p ->
        let g = build_dag p in
        let ok = ref true in
        Taskgraph.iter_edges
          (fun src dst w ->
            if not (Array.exists (fun (s, w') -> s = src && w' = w) (preds g dst))
            then ok := false)
          g;
        !ok);
    qtest "weights are non-negative and finite" arb_dag_params (fun p ->
        let g = build_dag p in
        let ok = ref true in
        for t = 0 to Taskgraph.num_tasks g - 1 do
          let c = Taskgraph.comp g t in
          if not (Float.is_finite c) || c < 0.0 then ok := false
        done;
        Taskgraph.iter_edges (fun _ _ w -> if w < 0.0 then ok := false) g;
        !ok);
    qtest "Builder find_cycle, mem_edge and appended suffixes agree with build"
      arb_builder_input builder_functions_agree;
  ]

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "comm lookup" `Quick test_comm_lookup;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "cycle rejected" `Quick test_builder_rejects_cycle;
    Alcotest.test_case "bad edges rejected" `Quick test_builder_rejects_bad_edges;
    Alcotest.test_case "bad tasks rejected" `Quick test_builder_rejects_bad_tasks;
    Alcotest.test_case "builder single use" `Quick test_builder_single_use;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "unknown task errors" `Quick test_unknown_task_errors;
    Alcotest.test_case "iter_edges complete" `Quick test_iter_edges_complete;
    Alcotest.test_case "printers" `Quick test_printers;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
