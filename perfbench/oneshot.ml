(* Closed-loop Schedule load: each client thread owns one connection and
   sends its next request only once the previous answer arrived, the
   way a caller of the scheduling service submits a graph and waits for
   its schedule. Every answer is checked against the in-process
   reference makespan; wrong answers, refusals and transport drops all
   count as failures. *)

module Client = Flb_service.Client
module Wire = Flb_service.Wire

let now = Unix.gettimeofday

(* One correct answer. *)
type answer = {
  at : float;  (* completion time *)
  rtt : float;  (* seconds, client round trip *)
  index : int;  (* request index in the workload's input array *)
  breakdown : Wire.breakdown;  (* server-reported stages *)
}

type window = {
  start : float;
  seconds : float;  (* requested length; the last answers land after it *)
  wall : float;  (* seconds from the first send to the last answer *)
  attempted : int;
  failed : int;
  answers : answer list;
  responses : (int * Wire.response) list;  (* a few real answers, by index *)
}

let same_makespan got want =
  Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)

(* [ports.(i mod n)] is client [i]'s endpoint. Requests are taken in
   order from [cursor], which successive windows share so that each
   continues the previous one's cycle through the inputs. *)
let run ?(spans = Spans.off) ~cursor ~ports ~clients ~seconds ~procs
    (reqs : Inputs.request array) =
  let n = Array.length reqs in
  let keep = min n 16 in
  let start = now () in
  let deadline = start +. seconds in
  let results = Array.make clients (0, 0, [], []) in
  let worker id () =
    let port = ports.(id mod Array.length ports) in
    let track = Printf.sprintf "client-%d" id in
    let attempted = ref 0 and failed = ref 0 in
    let answers = ref [] and responses = ref [] in
    while now () < deadline do
      let index = Atomic.fetch_and_add cursor 1 mod n in
      let r = reqs.(index) in
      incr attempted;
      let t0 = now () in
      let resp =
        try
          Client.schedule (Conns.get ~port ~slot:id) ~graph:r.Inputs.text ~algo:Inputs.algo_name ~procs
        with e -> Error (Printexc.to_string e)
      in
      let at = now () in
      let rtt = at -. t0 in
      match resp with
      | Ok (Wire.Scheduled s as response) when same_makespan s.makespan r.Inputs.reference ->
        answers := { at; rtt; index; breakdown = s.breakdown } :: !answers;
        if index < keep && not (List.mem_assoc index !responses) then
          responses := (index, response) :: !responses;
        if Spans.enabled spans then begin
          let b = s.breakdown in
          Spans.add spans ~track "schedule" ~t0 ~dur:rtt
            ~args:[ ("request", float_of_int index); ("tasks", float_of_int r.Inputs.tasks) ];
          (* The server reports stage durations, not offsets: lay the
             stages out in request-path order inside the round trip. *)
          let at = ref t0 in
          List.iter
            (fun (name, d) ->
              if d > 0.0 then begin
                Spans.add spans ~track name ~t0:!at ~dur:d;
                at := !at +. d
              end)
            [ ("cache", b.Wire.cache_s); ("queue-wait", b.Wire.queue_wait_s);
              ("execute", b.Wire.exec_s) ]
        end
      | Ok (Wire.Scheduled s) ->
        incr failed;
        Printf.eprintf "request %d: makespan %.17g, reference %.17g\n%!" index
          s.makespan r.Inputs.reference
      | Ok _ -> incr failed
      | Error msg ->
        incr failed;
        Printf.eprintf "request %d: transport error: %s\n%!" index msg;
        Conns.drop ~port ~slot:id;
        Unix.sleepf 0.001
    done;
    results.(id) <- (!attempted, !failed, !answers, !responses)
  in
  let threads = List.init clients (fun id -> Thread.create (worker id) ()) in
  List.iter Thread.join threads;
  let wall = now () -. start in
  Array.fold_left
    (fun w (a, f, ans, resp) ->
      {
        w with
        attempted = w.attempted + a;
        failed = w.failed + f;
        answers = List.rev_append ans w.answers;
        responses = resp @ w.responses;
      })
    { start; seconds; wall; attempted = 0; failed = 0; answers = []; responses = [] }
    results

let rtt_sample answers = Sample.of_list (List.map (fun a -> a.rtt) answers)

let stage_sample w f = Sample.of_list (List.map (fun a -> f a.breakdown) w.answers)

(* Every task of a request is placed by the request's answer, so each
   task's placement latency is its request's round trip. *)
let placement_pairs (reqs : Inputs.request array) answers =
  List.map (fun a -> (a.rtt *. 1e3, reqs.(a.index).Inputs.tasks)) answers

let placed_tasks (reqs : Inputs.request array) answers =
  List.fold_left (fun acc a -> acc + reqs.(a.index).Inputs.tasks) 0 answers
