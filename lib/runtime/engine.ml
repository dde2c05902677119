open! Flb_taskgraph
open! Flb_platform
module Metrics = Flb_obs.Metrics
module Flight = Flb_obs.Flight_recorder

type recovery = No_recovery | Steal_queues | Resched of string

let recovery_to_string = function
  | No_recovery -> "none"
  | Steal_queues -> "steal"
  | Resched algo -> Printf.sprintf "resched(%s)" algo

type config = {
  domains : int;
  unit_ns : float;
  charge_comm : bool;
  faults : Fault.spec;
  recover : recovery;
  seed : int;
  metrics : Metrics.t option;
  flight_path : string option;
}

let default_config =
  {
    domains = 4;
    unit_ns = 1000.0;
    charge_comm = true;
    faults = Fault.none;
    recover = Steal_queues;
    seed = 1;
    metrics = None;
    flight_path = None;
  }

type outcome = {
  engine : string;
  domains : int;
  total : int;
  completed : int;
  real_ns : float;
  real_units : float;
  predicted_units : float;
  per_domain_tasks : int array;
  per_domain_busy_ns : float array;
  per_domain_idle_ns : float array;
  steals : int;
  failed_steals : int;
  recovered : int;
  killed : int;
  rescheds : int;
  hint_hits : int;
  hint_misses : int;
}

let complete o = o.completed = o.total

let ratio o = o.real_units /. o.predicted_units

let hint_hit_rate o =
  let total = o.hint_hits + o.hint_misses in
  if total = 0 then Float.nan else float_of_int o.hint_hits /. float_of_int total

let pp_outcome ppf o =
  Format.fprintf ppf
    "%s on %d domains: %d/%d tasks, %.3f ms real (%.2f units, predicted %g), %d \
     steals (%d failed), %d recovered, %d killed, %d rescheds"
    o.engine o.domains o.completed o.total (o.real_ns /. 1e6) o.real_units
    o.predicted_units o.steals o.failed_steals o.recovered o.killed o.rescheds;
  let rate = hint_hit_rate o in
  if Float.is_finite rate then
    Format.fprintf ppf ", hint hit rate %.2f (%d/%d)" rate o.hint_hits
      (o.hint_hits + o.hint_misses)

let emit_metrics m o =
  let open Metrics in
  Counter.add (counter m ~help:"tasks executed by the runtime" "rt_tasks_total")
    o.completed;
  Counter.add (counter m ~help:"successful steals" "rt_steals_total") o.steals;
  Counter.add (counter m ~help:"steal attempts that found nothing" "rt_failed_steals_total")
    o.failed_steals;
  Counter.add
    (counter m ~help:"tasks executed on their affinity-hinted domain"
       "rt_affinity_hint_hits_total")
    o.hint_hits;
  Counter.add
    (counter m ~help:"tasks executed away from their affinity-hinted domain"
       "rt_affinity_hint_misses_total")
    o.hint_misses;
  Gauge.set
    (gauge m ~help:"fraction of tasks executed on their hinted domain"
       "rt_affinity_hint_rate")
    (let r = hint_hit_rate o in
     if Float.is_finite r then r else 0.0);
  Counter.add (counter m ~help:"tasks recovered from dead domains" "rt_recovered_total")
    o.recovered;
  Counter.add (counter m ~help:"domains killed by fault injection" "rt_killed_domains_total")
    o.killed;
  Counter.add
    (counter m ~help:"frontier reschedules triggered by faults" "rt_resched_total")
    o.rescheds;
  Gauge.set (gauge m ~help:"real makespan, ns" "rt_real_makespan_ns") o.real_ns;
  Gauge.set (gauge m ~help:"real makespan, weight units" "rt_real_makespan_units")
    o.real_units;
  Gauge.set
    (gauge m ~help:"schedule's analytic makespan, weight units"
       "rt_predicted_makespan_units")
    o.predicted_units;
  Gauge.set (gauge m ~help:"real / predicted makespan" "rt_real_over_predicted")
    (ratio o);
  Array.iteri
    (fun d ns ->
      Gauge.set (gauge m ~help:"idle ns of this domain" (Printf.sprintf "rt_idle_ns_d%d" d)) ns)
    o.per_domain_idle_ns;
  Array.iteri
    (fun d ns ->
      Gauge.set (gauge m ~help:"busy ns of this domain" (Printf.sprintf "rt_busy_ns_d%d" d)) ns)
    o.per_domain_busy_ns

(* Cooperative wait: spin briefly, then nap. On a dedicated core the
   spins win and the sleep never triggers; on an oversubscribed or
   single-core host the nap yields the CPU, so dependency hand-offs cost
   ~100 µs instead of a full OS timeslice of fruitless spinning. *)
let relax fruitless =
  if fruitless > 200 then Unix.sleepf 1e-4
  else
    for _ = 1 to Int.min fruitless 64 do
      Domain.cpu_relax ()
    done

let max_backoff = 1024

let victim_rng config d = Flb_prelude.Rng.create ~seed:(config.seed + (d * 0x9E3779B9))

module State = struct
  type nonrec t = {
    cfg : config;
    graph : Taskgraph.t;
    total : int;
    predicted : float;
    engine : string;
    indegree : int Atomic.t array;
    finish_ns : float array;
    exec_domain : int array;
    completed : int Atomic.t;
    dead : bool Atomic.t array;
    deaths : int Atomic.t;
    go : bool Atomic.t;
    mutable start_ns : float;
    cal : Calibrate.t;
    flight : Flight.t option;
    dump_lock : Mutex.t;
    steals : int Atomic.t;
    failed_steals : int Atomic.t;
    recovered : int Atomic.t;
    rescheds : int Atomic.t;
    hint_hits : int Atomic.t;
    hint_misses : int Atomic.t;
    owner : int Atomic.t array;
    claim_units : float array;
    d_tasks : int array;
    d_busy_ns : float array;
    d_idle_ns : float array;
  }

  (* The most events one domain records in a run of [tasks] tasks: a
     span, a steal and a recover instant per task it runs (a thief runs
     the task its steal names), one stall instant per stall event of
     the fault spec, one killed instant, and one resched instant per
     death it reacts to, of which there are at most [domains]. *)
  let ring_capacity (cfg : config) ~tasks =
    (3 * tasks) + List.length cfg.faults + 1 + cfg.domains

  let create (cfg : config) ~engine ~predicted g =
    if cfg.domains < 1 then invalid_arg "Engine: domains must be >= 1";
    if not (Float.is_finite cfg.unit_ns) || cfg.unit_ns < 0.0 then
      invalid_arg "Engine: unit_ns must be finite and >= 0";
    if cfg.faults <> Fault.none && cfg.unit_ns <= 0.0 then
      invalid_arg "Engine: faults need unit_ns > 0 (fault times are weight units)";
    (match Fault.validate cfg.faults ~domains:cfg.domains with
    | Ok () -> ()
    | Error e -> invalid_arg ("Engine: " ^ Fault.error_to_string e));
    let n = Taskgraph.num_tasks g in
    {
      cfg;
      graph = g;
      total = n;
      predicted;
      engine;
      indegree = Array.init n (fun t -> Atomic.make (Taskgraph.in_degree g t));
      finish_ns = Array.make n 0.0;
      exec_domain = Array.make n (-1);
      completed = Atomic.make 0;
      dead = Array.init cfg.domains (fun _ -> Atomic.make false);
      deaths = Atomic.make 0;
      go = Atomic.make false;
      start_ns = 0.0;
      cal = (if cfg.unit_ns > 0.0 then Calibrate.default () else Calibrate.instant);
      flight =
        Option.map
          (fun _ -> Flight.create ~capacity:(ring_capacity cfg ~tasks:n) ~domains:cfg.domains)
          cfg.flight_path;
      dump_lock = Mutex.create ();
      steals = Atomic.make 0;
      failed_steals = Atomic.make 0;
      recovered = Atomic.make 0;
      rescheds = Atomic.make 0;
      hint_hits = Atomic.make 0;
      hint_misses = Atomic.make 0;
      owner = Array.init n (fun _ -> Atomic.make (-1));
      claim_units = Array.make n 0.0;
      d_tasks = Array.make cfg.domains 0;
      d_busy_ns = Array.make cfg.domains 0.0;
      d_idle_ns = Array.make cfg.domains 0.0;
    }

  let now_units st =
    if st.cfg.unit_ns > 0.0 then (Clock.now_ns () -. st.start_ns) /. st.cfg.unit_ns
    else 0.0

  let is_dead st d = Atomic.get st.dead.(d)

  let flight_meta ~reason st =
    [
      ("reason", reason);
      ("engine", st.engine);
      ("domains", string_of_int st.cfg.domains);
      ("unit_ns", Flb_prelude.Json.to_string (Flb_prelude.Json.Num st.cfg.unit_ns));
    ]

  (* Serialized on [dump_lock] so two concurrent faults don't interleave
     writes to the same file; a failing write must never take the run
     down with it. *)
  let dump_flight ~reason st =
    match (st.flight, st.cfg.flight_path) with
    | Some fr, Some path ->
      Mutex.lock st.dump_lock;
      (try
         Flight.dump ~meta:(flight_meta ~reason st)
           ~name:(Printf.sprintf "%s on %d domains" st.engine st.cfg.domains)
           fr ~path
       with _ -> ());
      Mutex.unlock st.dump_lock
    | _ -> ()

  let seconds st ns = (ns -. st.start_ns) /. 1e9

  (* A kill or stall is the moment the recent past becomes worth
     keeping, so it also writes the log. *)
  let record st ~domain kind ~a ~b =
    match st.flight with
    | None -> ()
    | Some fr -> (
      Flight.record fr ~domain kind ~ts:(seconds st (Clock.now_ns ())) ~dur:0.0 ~a ~b;
      match kind with
      | Flight.Killed -> dump_flight ~reason:"killed" st
      | Flight.Stall -> dump_flight ~reason:"stall" st
      | Flight.Task | Flight.Steal | Flight.Recover | Flight.Resched -> ())

  let mark_dead st d =
    if not (Atomic.exchange st.dead.(d) true) then begin
      ignore (Atomic.fetch_and_add st.deaths 1);
      record st ~domain:d Flight.Killed ~a:(-1) ~b:(-1.0)
    end

  let ready st t = Atomic.get st.indegree.(t) = 0

  (* Exclusive-execution claim: stamp the claim time, then race the CAS.
     A loser's stamp is harmless — both contenders stamp the same
     instant, and only the winner's claim is ever read. *)
  let try_claim st ~domain t =
    st.claim_units.(t) <- now_units st;
    Atomic.compare_and_set st.owner.(t) (-1) domain

  let claimed st t = Atomic.get st.owner.(t) >= 0

  let run_task_enqueue st ~domain ~slowdown ~on_ready t =
    let g = st.graph in
    (* Arrival time of the last message: predecessors executed on another
       domain charge their edge's communication cost (in real ns) on top
       of their real finish time. Reading finish_ns/exec_domain is safe:
       both were written before the atomic indegree decrement that made
       [t] observable as ready. *)
    if st.cfg.charge_comm then begin
      let arrival = ref 0.0 in
      Taskgraph.iter_preds g t (fun p comm ->
          if st.exec_domain.(p) <> domain then
            arrival := Float.max !arrival (st.finish_ns.(p) +. (comm *. st.cfg.unit_ns)));
      let n = ref 0 in
      while Clock.now_ns () < !arrival do
        incr n;
        relax !n
      done
    end;
    let t0 = Clock.now_ns () in
    Calibrate.burn st.cal ~ns:(Taskgraph.comp g t *. st.cfg.unit_ns *. slowdown);
    let t1 = Clock.now_ns () in
    st.finish_ns.(t) <- t1;
    st.exec_domain.(t) <- domain;
    Taskgraph.iter_succs g t (fun s _ ->
        if Atomic.fetch_and_add st.indegree.(s) (-1) = 1 then on_ready s);
    ignore (Atomic.fetch_and_add st.completed 1);
    (match st.flight with
    | Some fr ->
      Flight.record fr ~domain Flight.Task ~ts:(seconds st t0)
        ~dur:((t1 -. t0) /. 1e9) ~a:t ~b:(-1.0)
    | None -> ());
    t1 -. t0

  let run_task st ~domain ~slowdown t =
    run_task_enqueue st ~domain ~slowdown ~on_ready:ignore t

  let count_hint st ~hit =
    ignore (Atomic.fetch_and_add (if hit then st.hint_hits else st.hint_misses) 1)

  let outcome st ~wall_ns =
    let last_finish = Array.fold_left Float.max 0.0 st.finish_ns in
    let makespan_ns =
      if last_finish > st.start_ns then last_finish -. st.start_ns else wall_ns
    in
    let o =
      {
        engine = st.engine;
        domains = st.cfg.domains;
        total = st.total;
        completed = Atomic.get st.completed;
        real_ns = makespan_ns;
        real_units =
          (if st.cfg.unit_ns > 0.0 then makespan_ns /. st.cfg.unit_ns else Float.nan);
        predicted_units = st.predicted;
        per_domain_tasks = Array.copy st.d_tasks;
        per_domain_busy_ns = Array.copy st.d_busy_ns;
        per_domain_idle_ns = Array.copy st.d_idle_ns;
        steals = Atomic.get st.steals;
        failed_steals = Atomic.get st.failed_steals;
        recovered = Atomic.get st.recovered;
        killed =
          Array.fold_left (fun acc d -> if Atomic.get d then acc + 1 else acc) 0 st.dead;
        rescheds = Atomic.get st.rescheds;
        hint_hits = Atomic.get st.hint_hits;
        hint_misses = Atomic.get st.hint_misses;
      }
    in
    Option.iter (fun m -> emit_metrics m o) st.cfg.metrics;
    dump_flight ~reason:"end" st;
    o

  (* The fault decision comes before the completion check: a kill that
     is due must register (fail-stop is a property of the domain, not of
     the remaining work), even if the other domains already finished
     everything while this one was being scheduled. *)
  let worker_loop st ~domain ~finished ~step =
    let df = Fault.for_domain st.cfg.faults domain in
    let rec loop () =
      match Fault.decide df ~now:(now_units st) with
      | Fault.Die -> mark_dead st domain
      | Fault.Stall_until until ->
        record st ~domain Flight.Stall ~a:(-1) ~b:until;
        let n = ref 0 in
        while now_units st < until && now_units st < df.Fault.kill_at do
          incr n;
          relax !n
        done;
        loop ()
      | Fault.Proceed slowdown ->
        if not (finished ()) then begin
          step ~slowdown;
          loop ()
        end
    in
    loop ()

  (* Domain.spawn costs milliseconds — far more than small DAGs burn —
     so workers park on a start gate and the epoch is stamped only once
     the whole team is up; the measured makespan is then last-finish
     minus epoch, free of spawn and join overhead. A worker whose body
     raises is marked dead so survivors recover its work instead of
     spinning on a completion count that can no longer be reached. Each
     worker sums its busy time in a local ref and publishes it once, at
     exit. *)
  let run_team ?finished st worker =
    let finished =
      match finished with
      | Some f -> f
      | None -> fun () -> Atomic.get st.completed >= st.total
    in
    let body d =
      let busy = ref 0.0 in
      let step = worker d ~busy in
      let n = ref 0 in
      while not (Atomic.get st.go) do
        incr n;
        relax !n
      done;
      let t_begin = Clock.now_ns () in
      worker_loop st ~domain:d ~finished ~step;
      let wall = Clock.now_ns () -. t_begin in
      st.d_busy_ns.(d) <- !busy;
      st.d_idle_ns.(d) <- Float.max 0.0 (wall -. !busy)
    in
    let team =
      Flb_prelude.Workers.spawn ~count:st.cfg.domains
        ~on_exn:(fun d _ -> mark_dead st d)
        body
    in
    st.start_ns <- Clock.now_ns ();
    Atomic.set st.go true;
    Flb_prelude.Workers.join team;
    outcome st ~wall_ns:(Clock.now_ns () -. st.start_ns)
end
