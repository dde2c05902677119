(* The allocation gate CI runs. --regress measures every scheduler of
   the paper's set on the V≈400 suite and writes the report to
   BENCH_schedulers.json (--regress-out FILE writes FILE instead);
   --regress-check FILE measures the suite again and exits 1 when a
   scheduler's bytes/task drifts from FILE's. Any other argument exits 2.

   Every table and figure of the evaluation is `flb experiment NAME|all`'s
   to regenerate; latency, throughput and real makespans are perfbench's
   to measure (perfbench/README.md). *)

module Regress = Flb_experiments.Regress

let usage () =
  prerr_endline "usage: main.exe --regress [--regress-out FILE] | --regress-check FILE";
  exit 2

let regress ~out =
  let report = Regress.run () in
  print_string (Regress.render report);
  Out_channel.with_open_text out (fun oc -> output_string oc (Regress.to_json report));
  Printf.printf "[regress] wrote %s\n%!" out

let regress_check path =
  match Regress.of_json (In_channel.with_open_text path In_channel.input_all) with
  | Error msg ->
    Printf.printf "[regress-check] FAILED: %s does not parse: %s\n%!" path msg;
    exit 1
  | Ok baseline -> (
    Printf.printf "[regress-check] baseline parses: mode=%s, %d entries\n%!"
      baseline.Regress.mode
      (List.length baseline.Regress.entries);
    let current = Regress.run () in
    print_string (Regress.render current);
    (* Only allocation is checked; wall time never is. *)
    match Regress.check ~baseline ~current ~tolerance:0.5 with
    | Ok () -> Printf.printf "[regress-check] allocation metrics match baseline\n%!"
    | Error errors ->
      List.iter (Printf.printf "[regress-check] FAILED: %s\n") errors;
      exit 1)

let () =
  let rec parse ((regress, out, check) as acc) = function
    | [] -> acc
    | "--regress" :: rest -> parse (true, out, check) rest
    | "--regress-out" :: file :: rest -> parse (regress, Some file, check) rest
    | "--regress-check" :: file :: rest -> parse (regress, out, Some file) rest
    | arg :: _ ->
      Printf.eprintf "main.exe: unknown argument %s\n" arg;
      usage ()
  in
  match parse (false, None, None) (List.tl (Array.to_list Sys.argv)) with
  | _, _, Some baseline -> regress_check baseline
  | true, out, None -> regress ~out:(Option.value out ~default:"BENCH_schedulers.json")
  | false, _, None -> usage ()
