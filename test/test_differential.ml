(* The plain-text formats and the graph builder against their reference
   implementations ([Reference]): the same graph bits or the same error,
   for well-formed, mutated and random input; byte-identical renderings
   for every scheduler's schedules. The library accepts "\r\n" line ends,
   which the reference did not, so parsing is compared as
   new(T) = old(T with every "\r\n" replaced by "\n"). *)

open! Flb_taskgraph
open! Flb_platform
open Testutil

let crlf_to_lf s =
  let n = String.length s in
  let b = Buffer.create n in
  String.iteri
    (fun i c ->
      if not (c = '\r' && i + 1 < n && s.[i + 1] = '\n') then Buffer.add_char b c)
    s;
  Buffer.contents b

type 'a outcome = Value of 'a | Parse_error of int * string | Raised of string

let outcome f parse_error x =
  match f x with
  | v -> Value v
  | exception e -> (
    match parse_error e with
    | Some (line, message) -> Parse_error (line, message)
    | None -> Raised (Printexc.to_string e))

let new_parse text =
  outcome
    (fun t -> Reference.graph_of (Serial.of_string t))
    (function Serial.Parse_error { line; message } -> Some (line, message) | _ -> None)
    text

let old_parse text =
  outcome Reference.Serial.of_string
    (function
      | Reference.Serial.Parse_error { line; message } -> Some (line, message)
      | _ -> None)
    text

let same_outcome same a b =
  match (a, b) with Value x, Value y -> same x y | _ -> a = b

let parses_like_reference text =
  same_outcome Reference.same_graph (new_parse text) (old_parse (crlf_to_lf text))

(* --- text generators --- *)

let lines_of text = String.split_on_char '\n' text

(* Rebuilds a text from lines with the given line end. *)
let join_lines ~crlf lines = String.concat (if crlf then "\r\n" else "\n") lines

(* Well-formed texts in every surface variant the syntax allows: tabs
   and runs of blanks between fields, comment lines and trailing
   comments, blank lines, CRLF line ends, and edge/task lines in any
   order after [tasks]. *)
let gen_variant_text =
  QCheck.Gen.(
    gen_dag_params >>= fun p ->
    let lines = lines_of (Reference.Serial.to_string (build_dag p)) in
    let blank = oneofl [ " "; "\t"; "  "; " \t "; "\t\t" ] in
    let respace line =
      String.split_on_char ' ' line
      |> List.fold_left
           (fun acc field ->
             acc >>= fun acc ->
             blank >|= fun sep -> if acc = [] then [ field ] else field :: sep :: acc)
           (return [])
      >|= fun parts -> String.concat "" (List.rev parts)
    in
    let decorate line =
      frequency
        [
          (6, return [ line ]);
          (1, return [ line ^ " # trailing" ]);
          (1, return [ "# comment"; line ]);
          (1, return [ ""; line ]);
          (1, return [ "\t" ^ line ^ "\t" ]);
        ]
    in
    let header, body =
      match lines with
      | comment :: tasks :: body -> ([ comment; tasks ], body)
      | _ -> (lines, [])
    in
    shuffle_l body >>= fun body ->
    flatten_l (List.map (fun l -> respace l >>= decorate) (header @ body))
    >>= fun lines -> bool >|= fun crlf -> join_lines ~crlf (List.concat lines))

let soup_tokens =
  [
    "tasks"; "task"; "edge"; "Task"; "0"; "1"; "2"; "3"; "-1"; "+1"; "0x2"; "1_0";
    "0b1"; "0o3"; "007"; "1.5"; "-0"; "-0.0"; "1e1"; "nan"; "inf"; "-inf"; "0.";
    ".5"; "1e400"; "0x1p-2"; "999999999999999999"; "9999999999999999999";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904"; "abc";
    "#"; "#x"; "\r"; "5\r"; "\r\r"; "1#"; "";
  ]

let gen_token = QCheck.Gen.oneofl soup_tokens

let gen_sep = QCheck.Gen.oneofl [ " "; "\t"; "  "; " \r " ]

let gen_soup_line =
  QCheck.Gen.(
    list_size (int_range 0 5) (pair gen_token gen_sep) >|= fun parts ->
    String.concat "" (List.map (fun (t, s) -> t ^ s) parts))

(* Short texts of random tokens: mostly rejected, in every way the
   parser can reject. *)
let gen_soup_text =
  QCheck.Gen.(
    list_size (int_range 0 6) gen_soup_line >>= fun lines ->
    oneofl [ "\n"; "\r\n"; "\r" ] >|= fun eol -> String.concat eol lines)

(* Edits of a list at index [k]. *)
let drop_at k xs = List.filteri (fun k' _ -> k' <> k) xs

let replace_at k y xs = List.mapi (fun k' x -> if k' = k then y else x) xs

let expand_at k f xs =
  List.concat (List.mapi (fun k' x -> if k' = k then f x else [ x ]) xs)

(* A well-formed text with one line deleted, duplicated, swapped with
   its successor, or with one field replaced, dropped or added. *)
let gen_mutated_text =
  QCheck.Gen.(
    gen_dag_params >>= fun p ->
    let lines = lines_of (Reference.Serial.to_string (build_dag p)) in
    let n = List.length lines in
    int_range 0 (n - 1) >>= fun i ->
    let line = List.nth lines i in
    let fields = String.split_on_char ' ' line in
    int_range 0 (List.length fields - 1) >>= fun j ->
    gen_token >>= fun tok ->
    let with_fields fs = replace_at i (String.concat " " fs) lines in
    oneofl
      [
        drop_at i lines;
        expand_at i (fun l -> [ l; l ]) lines;
        (if i + 1 < n then
           replace_at i (List.nth lines (i + 1)) (replace_at (i + 1) line lines)
         else lines);
        with_fields (replace_at j tok fields);
        with_fields (drop_at j fields);
        with_fields (expand_at j (fun f -> [ f; tok ]) fields);
      ]
    >>= fun lines -> bool >|= fun crlf -> join_lines ~crlf lines)

let arb_text gen = QCheck.make ~print:String.escaped gen

(* --- builder operation sequences --- *)

type op = Add_task of float | Add_edge of int * int * float | Build

let show_op = function
  | Add_task c -> Printf.sprintf "add_task %h" c
  | Add_edge (s, d, w) -> Printf.sprintf "add_edge %d->%d %h" s d w
  | Build -> "build"

let gen_weight =
  QCheck.Gen.(
    frequency
      [
        (8, float_bound_inclusive 10.0);
        (1, oneofl [ 0.0; -0.0; -1.0; Float.nan; Float.infinity; 5e-324 ]);
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun c -> Add_task c) gen_weight);
        ( 6,
          map3 (fun s d w -> Add_edge (s, d, w)) (int_range (-1) 8) (int_range (-1) 8)
            gen_weight );
        (1, return Build);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "expected_tasks %d: %s" cap
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range (-2) 20) (list_size (int_range 0 40) gen_op))

type step = Added of int | Edge_added | Built of Reference.graph | Rejected of string

let same_step a b =
  match (a, b) with Built x, Built y -> Reference.same_graph x y | _ -> a = b

let run_ops ~add_task ~add_edge ~build ops =
  let step f = try f () with Invalid_argument msg -> Rejected msg in
  List.map
    (function
      | Add_task comp -> step (fun () -> Added (add_task comp))
      | Add_edge (src, dst, comm) ->
        step (fun () ->
            add_edge src dst comm;
            Edge_added)
      | Build -> step (fun () -> Built (build ())))
    (ops @ [ Build ])

let builders_agree (cap, ops) =
  let b = Taskgraph.Builder.create ~expected_tasks:cap () in
  let r = Reference.Builder.create ~expected_tasks:cap () in
  let got =
    run_ops
      ~add_task:(fun comp -> Taskgraph.Builder.add_task b ~comp)
      ~add_edge:(fun src dst comm -> Taskgraph.Builder.add_edge b ~src ~dst ~comm)
      ~build:(fun () -> Reference.graph_of (Taskgraph.Builder.build b))
      ops
  in
  let want =
    run_ops
      ~add_task:(fun comp -> Reference.Builder.add_task r ~comp)
      ~add_edge:(fun src dst comm -> Reference.Builder.add_edge r ~src ~dst ~comm)
      ~build:(fun () -> Reference.Builder.build r)
      ops
  in
  List.length got = List.length want && List.for_all2 same_step got want

(* --- renderers --- *)

let arb_weird_graph =
  let weight =
    QCheck.Gen.(
      frequency
        [
          (4, float_bound_inclusive 1000.0);
          ( 1,
            oneofl
              [ 0.0; -0.0; 0.1; 1.0 /. 3.0; 5e-324; 2.2250738585072014e-308; 1e21; 1e-7;
                Float.max_float; 123456789.0 ] );
        ])
  in
  QCheck.make
    ~print:(fun (comp, edges) ->
      Printf.sprintf "%d tasks, %d edges" (Array.length comp) (List.length edges))
    QCheck.Gen.(
      int_range 0 12 >>= fun n ->
      array_size (return n) weight >>= fun comp ->
      let task = int_range 0 (max 0 (n - 1)) in
      list_size (int_range 0 20) (triple task task weight) >|= fun edges ->
      let seen = Hashtbl.create 16 in
      ( comp,
        List.filter
          (fun (s, d, _) ->
            let keep = s < d && not (Hashtbl.mem seen (s, d)) in
            Hashtbl.replace seen (s, d) ();
            keep)
          edges ))

let renders_like_reference (p, procs) =
  let g = build_dag p in
  let m = Machine.clique ~num_procs:procs in
  String.equal (Serial.to_string g) (Reference.Serial.to_string g)
  && List.for_all
       (fun (a : Flb_experiments.Registry.t) ->
         let s = a.run g m in
         String.equal (Schedule_io.to_string s) (Reference.Schedule_io.to_string s))
       Flb_experiments.Registry.extended_set

(* --- schedule text --- *)

let schedule_outcome parse g m text =
  outcome
    (fun text ->
      let s = parse g m text in
      Array.init (Taskgraph.num_tasks g) (fun t ->
          (Schedule.proc s t, Schedule.start_time s t)))
    (function
      | Schedule_io.Parse_error { line; message }
      | Reference.Schedule_io.Parse_error { line; message } ->
        Some (line, message)
      | _ -> None)
    text

let arb_schedule_text =
  QCheck.make
    ~print:(fun (_, procs, text) -> Printf.sprintf "P=%d %S" procs text)
    QCheck.Gen.(
      pair gen_dag_params (int_range 1 4) >>= fun (p, procs) ->
      let s = Flb_core.Flb.run (build_dag p) (Machine.clique ~num_procs:procs) in
      let lines = lines_of (Reference.Schedule_io.to_string s) in
      int_range 0 (List.length lines - 1) >>= fun i ->
      gen_soup_line >>= fun junk ->
      oneofl
        [
          lines;
          drop_at i lines;
          replace_at i junk lines;
          expand_at i (fun l -> [ l ^ " " ^ junk ]) lines;
          expand_at i (fun l -> [ l; l ]) lines;
        ]
      >>= fun lines -> bool >|= fun crlf -> (p, procs, join_lines ~crlf lines))

let schedules_parse_like_reference (p, procs, text) =
  let g = build_dag p in
  let m = Machine.clique ~num_procs:procs in
  schedule_outcome Schedule_io.of_string g m text
  = schedule_outcome Reference.Schedule_io.of_string g m (crlf_to_lf text)

(* --- unit cases --- *)

let test_crlf_parses_like_lf () =
  let g =
    Flb_workloads.Weights.assign
      (Flb_workloads.Lu.structure ~matrix_size:12)
      ~rng:(Flb_prelude.Rng.create ~seed:1) ~ccr:1.0
  in
  let lf = Serial.to_string g in
  let crlf = String.concat "\r\n" (String.split_on_char '\n' lf) in
  check_bool "CRLF text = LF text" true
    (Reference.same_graph
       (Reference.graph_of (Serial.of_string lf))
       (Reference.graph_of (Serial.of_string crlf)));
  (* The reference rejected it on the 'tasks' line. *)
  match Reference.Serial.of_string crlf with
  | exception Reference.Serial.Parse_error { line = 2; message } ->
    Alcotest.(check string) "reference message"
      (Printf.sprintf "bad task count %S"
         (string_of_int (Taskgraph.num_tasks g) ^ "\r"))
      message
  | _ -> Alcotest.fail "the reference accepted CRLF text"

let qsuite =
  [
    qtest ~count:2000 "parse: well-formed variants = reference"
      (arb_text gen_variant_text) parses_like_reference;
    qtest ~count:3000 "parse: single-line mutations = reference"
      (arb_text gen_mutated_text) parses_like_reference;
    qtest ~count:5000 "parse: token soups = reference" (arb_text gen_soup_text)
      parses_like_reference;
    qtest ~count:3000 "builder: operation sequences = reference" arb_ops builders_agree;
    qtest ~count:300 "render: graph and schedule text = Printf reference"
      arb_scheduling_case renders_like_reference;
    qtest ~count:1000 "render: extreme weights = Printf reference" arb_weird_graph
      (fun (comp, edges) ->
        let g = Taskgraph.of_arrays ~comp ~edges:(Array.of_list edges) in
        String.equal (Serial.to_string g) (Reference.Serial.to_string g));
    qtest ~count:1000 "parse: schedule text = reference" arb_schedule_text
      schedules_parse_like_reference;
  ]

let suite =
  [
    Alcotest.test_case "CRLF graph text parses like its LF form" `Quick
      test_crlf_parses_like_lf;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
