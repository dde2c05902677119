open! Flb_taskgraph
module State = Engine.State
module Rng = Flb_prelude.Rng
module Flight = Flb_obs.Flight_recorder

(* Entry tasks dealt round-robin so every domain has seed work. *)
let seed ~domains g =
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  let next = ref 0 in
  for t = 0 to Taskgraph.num_tasks g - 1 do
    if Taskgraph.is_entry g t then begin
      Deque.push_back deques.(!next mod domains) t;
      incr next
    end
  done;
  deques

let run ?(config = Engine.default_config) g =
  let dnum = config.Engine.domains in
  let st = State.create config ~engine:"steal" ~predicted:Float.nan g in
  let deques = seed ~domains:dnum g in
  State.run_team st (fun d ~busy ->
    let rng = Engine.victim_rng config d in
    let backoff = ref 0 in
    (* The hint of a task is the deque it was placed in (its enabling
       domain, or its round-robin seed slot): popping one's own deque is
       a locality hit, having to steal is a miss. *)
    let run_one ~slowdown ~hit t =
      backoff := 0;
      State.count_hint st ~hit;
      busy :=
        !busy
        +. State.run_task_enqueue st ~domain:d ~slowdown
             ~on_ready:(Deque.push_back deques.(d))
             t;
      st.State.d_tasks.(d) <- st.State.d_tasks.(d) + 1
    in
    fun ~slowdown ->
      match Deque.pop_back deques.(d) with
      | Some t -> run_one ~slowdown ~hit:true t
      | None ->
        if dnum = 1 then begin
          backoff := !backoff + 1;
          Engine.relax !backoff
        end
        else begin
          let victim = (d + 1 + Rng.int rng (dnum - 1)) mod dnum in
          (* Thief side takes the FIFO front — the oldest, most likely
             cold task — never racing the owner's LIFO back. *)
          match Deque.take_front deques.(victim) with
          | Some t ->
            ignore (Atomic.fetch_and_add st.State.steals 1);
            State.record st ~domain:d Flight.Steal ~a:t ~b:(float_of_int victim);
            if State.is_dead st victim then begin
              ignore (Atomic.fetch_and_add st.State.recovered 1);
              State.record st ~domain:d Flight.Recover ~a:t ~b:(float_of_int victim)
            end;
            run_one ~slowdown ~hit:false t
          | None ->
            ignore (Atomic.fetch_and_add st.State.failed_steals 1);
            backoff := Int.min (!backoff + 1) Engine.max_backoff;
            Engine.relax !backoff
        end)
