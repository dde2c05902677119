(* Shared helpers for the test suite: float assertions, a QCheck arbitrary
   over small random weighted DAGs, and the wiring from QCheck tests to
   alcotest cases. *)

open! Flb_taskgraph
open! Flb_prelude

let check_float = Alcotest.(check (float 1e-9))

let check_floatish msg = Alcotest.(check (float 1e-6)) msg

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* Parameters of a random test DAG; kept as a first-class record so QCheck
   can print failing cases usefully. *)
type dag_params = {
  layers : int;
  max_width : int;
  edge_probability : float;
  ccr : float;
  seed : int;
}

let show_dag_params p =
  Printf.sprintf "{layers=%d; max_width=%d; p=%.2f; ccr=%.2f; seed=%d}" p.layers
    p.max_width p.edge_probability p.ccr p.seed

let build_dag p =
  let rng = Rng.create ~seed:p.seed in
  let structure =
    Flb_workloads.Random_dag.layered ~rng ~layers:p.layers ~min_width:1
      ~max_width:p.max_width ~edge_probability:p.edge_probability
  in
  Flb_workloads.Weights.assign structure ~rng ~ccr:p.ccr

let gen_dag_params =
  QCheck.Gen.(
    map
      (fun (layers, max_width, ep, (ccr, seed)) ->
        { layers; max_width; edge_probability = ep; ccr; seed })
      (quad (int_range 1 7) (int_range 1 6) (float_bound_inclusive 1.0)
         (pair (float_bound_inclusive 8.0) (int_range 0 100000))))

let arb_dag_params = QCheck.make ~print:show_dag_params gen_dag_params

(* Machines of 1 to 5 processors paired with a random DAG: the shape of
   most scheduler properties. *)
let arb_scheduling_case =
  QCheck.make
    ~print:(fun (p, procs) -> Printf.sprintf "%s on %d procs" (show_dag_params p) procs)
    QCheck.Gen.(pair gen_dag_params (int_range 1 5))

let qtests_to_alcotest name qtests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) qtests)

let qtest ?(count = 200) name arb prop = QCheck.Test.make ~name ~count arb prop

(* A tiny hand-checkable graph distinct from the paper's Fig. 1:
       a(2) --1--> b(3) --2--> d(1)
       a(2) --4--> c(1) --1--> d(1)                                    *)
let small_graph () =
  Taskgraph.of_arrays
    ~comp:[| 2.0; 3.0; 1.0; 1.0 |]
    ~edges:[| (0, 1, 1.0); (0, 2, 4.0); (1, 3, 2.0); (2, 3, 1.0) |]

(* The key paths of a JSON document, sorted and without repeats: "a.b"
   for a field of a nested object, "a[].b" for a field of an array
   element. Values are ignored. *)
let json_key_paths json =
  let rec walk path acc = function
    | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let p = if path = "" then k else path ^ "." ^ k in
          walk p (p :: acc) v)
        acc fields
    | Json.Arr items -> List.fold_left (walk (path ^ "[]")) acc items
    | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> acc
  in
  List.sort_uniq compare (walk "" [] json)

(* Golden key paths: [key_section name keys] is [name] and its fields;
   a metrics histogram is a section of its count, sum and quantiles. *)
let key_fields prefix keys = List.map (fun k -> prefix ^ "." ^ k) keys

let key_section name keys = name :: key_fields name keys

let histogram_keys name = key_section name [ "count"; "sum"; "min"; "max"; "p50"; "p95"; "p99" ]
