open! Flb_taskgraph
open! Flb_platform
module Json = Flb_prelude.Json
module Trace = Flb_obs.Trace

(* Post-mortem makespan attribution: parse a runtime trace (live JSONL
   or a flight-recorder dump — same line schema), rebuild the realized
   precedence structure (dependency arrivals plus same-domain execution
   order), and walk it backward to name the chain of tasks that actually
   determined the makespan, the slack of everything else, and where each
   domain's time went. *)

type exec = { task : int; domain : int; start : float; finish : float }

type mark = {
  mark_name : string;
  mark_domain : int;
  mark_ts : float;
  mark_args : (string * float) list;
}

type run = {
  execs : exec list;
  marks : mark list;
  meta : (string * string) list;
}

let str fields k =
  match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None

let num fields k =
  match List.assoc_opt k fields with Some (Json.Num x) -> Some x | _ -> None

(* "D7" -> Some 7; request/phase tracks -> None. *)
let domain_of_track track =
  let l = String.length track in
  if l >= 2 && track.[0] = 'D' then int_of_string_opt (String.sub track 1 (l - 1))
  else None

let task_of_name name =
  if String.length name > 5 && String.sub name 0 5 = "task " then
    int_of_string_opt (String.sub name 5 (String.length name - 5))
  else None

let of_jsonl text =
  let execs = ref [] and marks = ref [] and meta = ref [] in
  let err = ref None in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         if !err = None && String.trim line <> "" then
           match Json.of_string line with
           | Error msg -> err := Some (Printf.sprintf "line %d: %s" !lineno msg)
           | Ok (Json.Obj fields) -> (
             match str fields "type" with
             | Some "meta" ->
               List.iter
                 (fun (k, v) ->
                   match v with
                   | Json.Str s when k <> "type" -> meta := (k, s) :: !meta
                   | _ -> ())
                 fields
             | Some "span" -> (
               (* Task spans live on domain tracks; request/phase spans
                  (req-..., "priority computation", ...) are not part of
                  the realized execution and are skipped. *)
               match
                 ( Option.bind (str fields "track") domain_of_track,
                   Option.bind (str fields "name") task_of_name,
                   num fields "ts",
                   num fields "dur" )
               with
               | Some domain, Some task, Some ts, Some dur ->
                 execs := { task; domain; start = ts; finish = ts +. dur } :: !execs
               | Some _, Some task, _, _ ->
                 (* a task span we recognized but cannot place in time:
                    dropping it silently would misattribute the run *)
                 err :=
                   Some
                     (Printf.sprintf "line %d: task %d span lacks ts/dur" !lineno
                        task)
               | _ -> ())
             | Some "instant" -> (
               match
                 ( Option.bind (str fields "track") domain_of_track,
                   str fields "name",
                   num fields "ts" )
               with
               | Some mark_domain, Some mark_name, Some mark_ts ->
                 let mark_args =
                   List.filter_map
                     (fun (k, v) ->
                       match v with
                       | Json.Num x when k <> "ts" && k <> "dur" -> Some (k, x)
                       | _ -> None)
                     fields
                 in
                 marks := { mark_name; mark_domain; mark_ts; mark_args } :: !marks
               | _ -> ())
             | _ -> ())
           | Ok _ -> err := Some (Printf.sprintf "line %d: not a JSON object" !lineno))
  |> ignore;
  match !err with
  | Some e -> Error e
  | None ->
    Ok { execs = List.rev !execs; marks = List.rev !marks; meta = List.rev !meta }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> of_jsonl text

(* --- the report --- *)

type task_stat = {
  t_task : int;
  t_domain : int;
  t_start : float;
  t_finish : float;
  t_slack : float;
  t_on_cp : bool;
  t_predicted_finish : float; (* nan without a schedule *)
  t_lateness : float; (* finish -. predicted finish; nan without *)
}

type domain_stat = {
  d_domain : int;
  d_tasks : int;
  d_busy : float;
  d_idle : float;
  d_steals : int;
  d_recovers : int;
  d_stalls : int;
  d_killed : bool;
}

type report = {
  makespan : float;
  executed : int;
  total : int;
  comm_charged : bool;
  critical_path : int list; (* execution order, first task first *)
  per_task : task_stat option array; (* indexed by task id; None = never ran *)
  per_domain : domain_stat array;
  stragglers : (int * float) list; (* (task, lateness), worst first *)
}

let num_domains run =
  let m = ref 0 in
  List.iter (fun e -> if e.domain > !m then m := e.domain) run.execs;
  List.iter (fun mk -> if mk.mark_domain > !m then m := mk.mark_domain) run.marks;
  (* A dump's meta line knows the team size even when some domain
     recorded nothing at all. *)
  (match Option.bind (List.assoc_opt "domains" run.meta) int_of_string_opt with
  | Some d when d > !m + 1 -> m := d - 1
  | _ -> ());
  !m + 1

(* A real run's meta line carries its nanoseconds per weight unit, which
   bring weights into the trace's seconds; a virtual-clock trace has
   none, and its timestamps already are weight units. *)
let unit_scale run =
  match Option.bind (List.assoc_opt "unit_ns" run.meta) float_of_string_opt with
  | Some ns when ns > 0.0 -> ns /. 1e9
  | _ -> 1.0

let analyze ?schedule ~graph run =
  let n = Taskgraph.num_tasks graph in
  let scale = unit_scale run in
  let start = Array.make n Float.nan in
  let finish = Array.make n Float.nan in
  let dom = Array.make n (-1) in
  let bad = ref None in
  List.iter
    (fun e ->
      if !bad = None then
        if e.task < 0 || e.task >= n then
          bad := Some (Printf.sprintf "task %d out of range (graph has %d)" e.task n)
        else if e.domain < 0 then
          bad := Some (Printf.sprintf "task %d on negative domain" e.task)
        else if not (e.finish >= e.start) then
          bad := Some (Printf.sprintf "task %d finishes before it starts" e.task)
        else begin
          start.(e.task) <- e.start;
          finish.(e.task) <- e.finish;
          dom.(e.task) <- e.domain
        end)
    run.execs;
  match !bad with
  | Some e -> Error e
  | None ->
    let executed t = dom.(t) >= 0 in
    let executed_count = Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 dom in
    if executed_count = 0 then Error "trace contains no task spans on domain tracks"
    else begin
      let num_domains = num_domains run in
      let makespan =
        let m = ref 0.0 in
        for t = 0 to n - 1 do
          if executed t && finish.(t) > !m then m := finish.(t)
        done;
        !m
      in
      let eps = 1e-9 *. Float.max 1.0 makespan in
      (* Was communication charged in this run? If every realized
         cross-domain dependency respects [start(s) >= finish(p) + w]
         (the weight [w] brought to trace time by [scale]), treat the
         edge weights as real separations; one violation means the run
         didn't charge them (e.g. --no-comm), so dependency lag is plain
         finish time. *)
      let comm_charged =
        let ok = ref true in
        for s = 0 to n - 1 do
          if executed s then
            Taskgraph.iter_preds graph s (fun p w ->
                if
                  executed p && dom.(p) <> dom.(s)
                  && start.(s) +. eps < finish.(p) +. (w *. scale)
                then ok := false)
        done;
        !ok
      in
      let lag p s w = if comm_charged && dom.(p) <> dom.(s) then w *. scale else 0.0 in
      (* Same-domain realized order: tasks sorted by start per domain. *)
      let by_domain = Array.make num_domains [] in
      for t = n - 1 downto 0 do
        if executed t then by_domain.(dom.(t)) <- t :: by_domain.(dom.(t))
      done;
      let by_domain =
        Array.map
          (fun ts ->
            Array.of_list
              (List.sort (fun a b -> compare (start.(a), a) (start.(b), b)) ts))
          by_domain
      in
      let order_pred = Array.make n (-1) in
      let order_succ = Array.make n (-1) in
      Array.iter
        (fun ts ->
          Array.iteri
            (fun i t ->
              if i > 0 then order_pred.(t) <- ts.(i - 1);
              if i < Array.length ts - 1 then order_succ.(t) <- ts.(i + 1))
            ts)
        by_domain;
      (* Latest finish over the realized constraint DAG (dependency
         edges between executed tasks, lagged by charged communication,
         plus zero-lag same-domain order edges). Decreasing realized
         finish time is a reverse topological order of that DAG: every
         constraint points forward in time. *)
      let order =
        let ts = ref [] in
        for t = 0 to n - 1 do
          if executed t then ts := t :: !ts
        done;
        List.sort (fun a b -> compare (finish.(b), b) (finish.(a), a)) !ts
      in
      let lf = Array.make n Float.infinity in
      List.iter
        (fun t ->
          let bound = ref makespan in
          Taskgraph.iter_succs graph t (fun s w ->
              if executed s then
                bound :=
                  Float.min !bound (start.(s) +. lf.(s) -. finish.(s) -. lag t s w));
          if order_succ.(t) >= 0 then begin
            let s = order_succ.(t) in
            bound := Float.min !bound (start.(s) +. lf.(s) -. finish.(s))
          end;
          lf.(t) <- !bound)
        order;
      let slack t = lf.(t) -. finish.(t) in
      (* The realized critical path: from the last-finishing task, walk
         back through the tightest constraint on each start — the
         dependency with the latest (comm-lagged) arrival, or the
         same-domain predecessor's finish, whichever is later. On an
         exact (virtual-clock) trace the chosen constraint equals the
         start; on a real trace it is the one the start waited on, with
         scheduler overhead as the gap. Dependencies win ties, then
         lower task ids. The walk ends at a task with no executed
         predecessor of either kind. *)
      let last =
        let best = ref (-1) in
        for t = n - 1 downto 0 do
          if executed t && (!best < 0 || finish.(t) > finish.(!best)) then best := t
        done;
        !best
      in
      let cp = ref [] in
      let cur = ref last in
      let stop = ref false in
      while not !stop do
        cp := !cur :: !cp;
        let t = !cur in
        let dep = ref (-1) and dep_arrival = ref Float.neg_infinity in
        Taskgraph.iter_preds graph t (fun p w ->
            if executed p then begin
              let arrival = finish.(p) +. lag p t w in
              if
                arrival > !dep_arrival +. eps
                || (arrival >= !dep_arrival -. eps && (!dep < 0 || p < !dep))
              then begin
                dep := p;
                dep_arrival := arrival
              end
            end);
        let best =
          let q = order_pred.(t) in
          if !dep >= 0 && (q < 0 || !dep_arrival >= finish.(q) -. eps) then !dep
          else q
        in
        if best < 0 then stop := true else cur := best
      done;
      let on_cp = Array.make n false in
      List.iter (fun t -> on_cp.(t) <- true) !cp;
      (* Predicted (ST, FT) from the schedule, if one was given. *)
      let predicted_finish t =
        match schedule with
        | Some sched when Schedule.is_scheduled sched t ->
          Schedule.finish_time sched t *. scale
        | _ -> Float.nan
      in
      let per_task =
        Array.init n (fun t ->
            if not (executed t) then None
            else
              let pf = predicted_finish t in
              Some
                {
                  t_task = t;
                  t_domain = dom.(t);
                  t_start = start.(t);
                  t_finish = finish.(t);
                  t_slack = slack t;
                  t_on_cp = on_cp.(t);
                  t_predicted_finish = pf;
                  t_lateness = finish.(t) -. pf;
                })
      in
      let count_marks d name =
        List.fold_left
          (fun acc mk ->
            if mk.mark_domain = d && mk.mark_name = name then acc + 1 else acc)
          0 run.marks
      in
      let per_domain =
        Array.init num_domains (fun d ->
            let busy =
              Array.fold_left
                (fun acc t -> acc +. (finish.(t) -. start.(t)))
                0.0 by_domain.(d)
            in
            {
              d_domain = d;
              d_tasks = Array.length by_domain.(d);
              d_busy = busy;
              d_idle = Float.max 0.0 (makespan -. busy);
              d_steals = count_marks d "steal";
              d_recovers = count_marks d "recover";
              d_stalls = count_marks d "stall";
              d_killed = count_marks d "killed" > 0;
            })
      in
      let stragglers =
        let ls = ref [] in
        for t = n - 1 downto 0 do
          if executed t then begin
            let l = finish.(t) -. predicted_finish t in
            if Float.is_finite l && l > eps then ls := (t, l) :: !ls
          end
        done;
        List.sort (fun (a, la) (b, lb) -> compare (lb, a) (la, b)) !ls
      in
      Ok
        {
          makespan;
          executed = executed_count;
          total = n;
          comm_charged;
          critical_path = !cp;
          per_task;
          per_domain;
          stragglers;
        }
    end

(* --- rendering --- *)

let render r =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%d/%d tasks on %d domains, makespan %g%s\n" r.executed r.total
    (Array.length r.per_domain) r.makespan
    (if r.comm_charged then "" else " (communication uncharged)");
  pr "realized critical path (%d tasks): %s\n"
    (List.length r.critical_path)
    (String.concat " -> " (List.map string_of_int r.critical_path));
  pr "  %6s %6s %10s %10s %10s %10s  %s\n" "task" "domain" "start" "finish"
    "dur" "slack" "";
  List.iter
    (fun t ->
      match r.per_task.(t) with
      | None -> ()
      | Some s ->
        pr "  %6d %6d %10g %10g %10g %10g  %s\n" s.t_task s.t_domain s.t_start
          s.t_finish
          (s.t_finish -. s.t_start)
          s.t_slack
          (if Float.is_finite s.t_lateness && Float.abs s.t_lateness > 1e-9 then
             Printf.sprintf "(%+g vs predicted)" s.t_lateness
           else ""))
    r.critical_path;
  pr "domains:\n";
  Array.iter
    (fun d ->
      pr "  D%d: %d tasks, busy %g (%.1f%%), idle %g" d.d_domain d.d_tasks
        d.d_busy
        (if r.makespan > 0.0 then 100.0 *. d.d_busy /. r.makespan else 0.0)
        d.d_idle;
      if d.d_steals > 0 then pr ", %d steals" d.d_steals;
      if d.d_recovers > 0 then pr ", %d recovered" d.d_recovers;
      if d.d_stalls > 0 then pr ", %d stalls" d.d_stalls;
      if d.d_killed then pr ", KILLED";
      pr "\n")
    r.per_domain;
  (match r.stragglers with
  | [] -> ()
  | ls ->
    pr "stragglers vs predicted finish:\n";
    List.iteri
      (fun i (t, l) ->
        if i < 10 then
          pr "  task %d: %+g%s\n" t l
            (match r.per_task.(t) with
            | Some s when s.t_on_cp -> " (on critical path)"
            | _ -> ""))
      ls);
  Buffer.contents b

let to_json r =
  let task s =
    Json.Obj
      ([
         ("task", Json.int s.t_task);
         ("domain", Json.int s.t_domain);
         ("start", Json.Num s.t_start);
         ("finish", Json.Num s.t_finish);
         ("slack", Json.Num s.t_slack);
         ("on_critical_path", Json.Bool s.t_on_cp);
       ]
      @
      if Float.is_finite s.t_lateness then
        [
          ("predicted_finish", Json.Num s.t_predicted_finish);
          ("lateness", Json.Num s.t_lateness);
        ]
      else [])
  in
  let domain d =
    Json.Obj
      [
        ("domain", Json.int d.d_domain);
        ("tasks", Json.int d.d_tasks);
        ("busy", Json.Num d.d_busy);
        ("idle", Json.Num d.d_idle);
        ("steals", Json.int d.d_steals);
        ("recovered", Json.int d.d_recovers);
        ("stalls", Json.int d.d_stalls);
        ("killed", Json.Bool d.d_killed);
      ]
  in
  let straggler (t, l) = Json.Obj [ ("task", Json.int t); ("lateness", Json.Num l) ] in
  Json.to_string
    (Json.Obj
       [
         ("makespan", Json.Num r.makespan);
         ("executed", Json.int r.executed);
         ("total", Json.int r.total);
         ("comm_charged", Json.Bool r.comm_charged);
         ("critical_path", Json.Arr (List.map Json.int r.critical_path));
         ("tasks", Json.Arr (List.filter_map (Option.map task) (Array.to_list r.per_task)));
         ("domains", Json.Arr (Array.to_list (Array.map domain r.per_domain)));
         ("stragglers", Json.Arr (List.map straggler r.stragglers));
       ])

(* --- JSONL for virtual-clock outcomes ---

   The virtual engines produce (start, finish, exec_domain) arrays
   instead of a live trace; replayed into a Trace as task spans in start
   order, they come out in Trace.to_jsonl's line schema, so [analyze]
   (and the fig1 golden test) reads both. *)

let jsonl_of_times ?meta ~start ~finish ~exec_domain () =
  let n = Array.length start in
  if Array.length finish <> n || Array.length exec_domain <> n then
    invalid_arg "Analyze.jsonl_of_times: array lengths differ";
  let tasks = ref [] in
  for t = n - 1 downto 0 do
    if exec_domain.(t) >= 0 then tasks := t :: !tasks
  done;
  let trace = Trace.create ~clock:(fun () -> 0.0) () in
  List.iter
    (fun t ->
      Trace.add_span trace
        ~track:(Printf.sprintf "D%d" exec_domain.(t))
        ~name:(Printf.sprintf "task %d" t) ~ts:start.(t)
        ~dur:(finish.(t) -. start.(t)))
    (List.sort (fun a b -> compare (start.(a), a) (start.(b), b)) !tasks);
  Trace.to_jsonl ?meta trace
