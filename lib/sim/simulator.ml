open! Flb_taskgraph
open! Flb_platform
module Trace = Flb_obs.Trace

type outcome = {
  start : float array;
  finish : float array;
  makespan : float;
  messages : int;
  comm_volume : float;
}

type error =
  | Deadlock of Taskgraph.task list
  | Incomplete_schedule of Taskgraph.task list

type event = Task_finished of int (* processor *) | Message_arrived of Taskgraph.task

let proc_track pr = Printf.sprintf "P%d" pr

let replay_placement ?send_ports ?(tracer = Trace.null) ?metrics g machine ~proc_of
    ~order_on =
  (match send_ports with
  | Some k when k < 1 -> invalid_arg "Simulator.replay_placement: send_ports < 1"
  | Some _ | None -> ());
  let n = Taskgraph.num_tasks g in
  let p = Machine.num_procs machine in
  let missing = ref [] in
  for t = n - 1 downto 0 do
    let pr = proc_of t in
    if pr < 0 || pr >= p then missing := t :: !missing
  done;
  if !missing <> [] then Result.Error (Incomplete_schedule !missing)
  else begin
    let queues = Array.init p (fun pr -> Queue.of_seq (List.to_seq (order_on pr))) in
    let running = Array.make p (-1) in
    (* -1: idle *)
    let pending_msgs = Array.init n (Taskgraph.in_degree g) in
    let start = Array.make n Float.nan in
    let finish = Array.make n Float.nan in
    let events = Event_queue.create () in
    let executed = ref 0 in
    let messages = ref 0 in
    let comm_volume = ref 0.0 in
    (* Outgoing-port model: [None] is the paper's contention-free network;
       [Some k] serializes each processor's sends through k ports. *)
    let ports =
      Option.map (fun k -> Array.init p (fun _ -> Array.make k 0.0)) send_ports
    in
    (* Optional telemetry: message/contention counters and latency
       histograms in [metrics], per-processor execution rows plus send
       and port-wait events in [tracer] (timestamps are simulated time). *)
    let latency_hist =
      Option.map
        (fun m ->
          Flb_obs.Metrics.histogram m ~help:"cross-processor message latency"
            "sim_message_latency")
        metrics
    in
    let port_wait_hist =
      Option.map
        (fun m ->
          Flb_obs.Metrics.histogram m ~help:"send delay due to port contention"
            "sim_port_wait")
        metrics
    in
    let port_waits = ref 0 in
    let departure now pr latency =
      match ports with
      | None -> now
      | Some ports ->
        let free = ports.(pr) in
        let slot = ref 0 in
        for i = 1 to Array.length free - 1 do
          if free.(i) < free.(!slot) then slot := i
        done;
        let start = Float.max now free.(!slot) in
        free.(!slot) <- start +. latency;
        let wait = start -. now in
        if wait > 0.0 then begin
          incr port_waits;
          Option.iter (fun h -> Flb_obs.Metrics.Histogram.observe h wait) port_wait_hist;
          if Trace.enabled tracer then
            Trace.instant tracer ~ts:now ~track:(proc_track pr) "port wait"
              ~args:[ ("wait", wait); ("departure", start) ]
        end;
        start
    in
    (* Start the head task of processor [pr] if the processor is idle and
       all the head's messages have arrived. *)
    let try_dispatch now pr =
      if running.(pr) < 0 then
        match Queue.peek_opt queues.(pr) with
        | Some t when pending_msgs.(t) = 0 ->
          ignore (Queue.pop queues.(pr));
          running.(pr) <- t;
          start.(t) <- now;
          finish.(t) <- now +. Taskgraph.comp g t;
          Event_queue.add events ~time:finish.(t) (Task_finished pr)
        | Some _ | None -> ()
    in
    let handle now = function
      | Task_finished pr ->
        let t = running.(pr) in
        running.(pr) <- -1;
        incr executed;
        if Trace.enabled tracer then
          Trace.add_span tracer ~track:(proc_track pr)
            ~name:(Printf.sprintf "task %d" t) ~ts:start.(t) ~dur:(now -. start.(t));
        Taskgraph.iter_succs g t (fun succ w ->
            let dst_proc = proc_of succ in
            let latency = Machine.comm_time machine ~src:pr ~dst:dst_proc ~cost:w in
            if latency = 0.0 then begin
              (* Local (or zero-cost) message: delivered instantly. *)
              pending_msgs.(succ) <- pending_msgs.(succ) - 1;
              if pending_msgs.(succ) = 0 then try_dispatch now dst_proc
            end
            else begin
              incr messages;
              comm_volume := !comm_volume +. latency;
              Option.iter
                (fun h -> Flb_obs.Metrics.Histogram.observe h latency)
                latency_hist;
              let sent = departure now pr latency in
              if Trace.enabled tracer then
                Trace.instant tracer ~ts:sent ~track:(proc_track pr)
                  (Printf.sprintf "send %d->%d" t succ)
                  ~args:
                    [
                      ("latency", latency);
                      ("dst_proc", float_of_int dst_proc);
                      ("arrival", sent +. latency);
                    ];
              Event_queue.add events ~time:(sent +. latency) (Message_arrived succ)
            end);
        try_dispatch now pr
      | Message_arrived t ->
        pending_msgs.(t) <- pending_msgs.(t) - 1;
        if pending_msgs.(t) = 0 then try_dispatch now (proc_of t)
    in
    for pr = 0 to p - 1 do
      try_dispatch 0.0 pr
    done;
    let rec drain () =
      match Event_queue.pop events with
      | None -> ()
      | Some (now, ev) ->
        handle now ev;
        drain ()
    in
    drain ();
    if !executed < n then begin
      let stuck = ref [] in
      for t = n - 1 downto 0 do
        if Float.is_nan start.(t) then stuck := t :: !stuck
      done;
      Result.Error (Deadlock !stuck)
    end
    else begin
      let makespan = Array.fold_left Float.max 0.0 finish in
      Option.iter
        (fun m ->
          let open Flb_obs.Metrics in
          Counter.add
            (counter m ~help:"cross-processor messages delivered" "sim_messages_total")
            !messages;
          Counter.add
            (counter m ~help:"sends delayed by port contention"
               "sim_port_waits_total")
            !port_waits;
          Gauge.set (gauge m ~help:"total latency of delivered messages"
               "sim_comm_volume")
            !comm_volume;
          Gauge.set (gauge m ~help:"simulated makespan" "sim_makespan") makespan)
        metrics;
      Result.Ok
        { start; finish; makespan; messages = !messages; comm_volume = !comm_volume }
    end
  end

let run ?send_ports ?tracer ?metrics sched =
  let g = Schedule.graph sched in
  let missing = ref [] in
  for t = Taskgraph.num_tasks g - 1 downto 0 do
    if not (Schedule.is_scheduled sched t) then missing := t :: !missing
  done;
  if !missing <> [] then Result.Error (Incomplete_schedule !missing)
  else
    let order = Schedule.execution_order sched in
    replay_placement ?send_ports ?tracer ?metrics g (Schedule.machine sched)
      ~proc_of:(Schedule.proc sched) ~order_on:(Array.get order)

let agrees_with_schedule sched outcome =
  let g = Schedule.graph sched in
  let ok = ref true in
  for t = 0 to Taskgraph.num_tasks g - 1 do
    if not (Schedule.is_scheduled sched t) then ok := false
    else if Schedule.start_time sched t <> outcome.start.(t) then ok := false
  done;
  !ok
