(* The benchmark's own spans around its calls into each layer. They are
   kept in memory by an Flb_obs.Trace tracer and written once, at the
   end of a traced run; an untraced run records nothing. *)

module Trace = Flb_obs.Trace

type t = { tracer : Trace.t; lock : Mutex.t; epoch : float }

let off = { tracer = Trace.null; lock = Mutex.create (); epoch = 0.0 }

let create () =
  let tracer = Trace.create () in
  { tracer; lock = Mutex.create (); epoch = Unix.gettimeofday () -. Trace.now tracer }

let enabled t = Trace.enabled t.tracer

(* A span from absolute wall-clock start [t0] lasting [dur] seconds. *)
let add ?(args = []) t ~track name ~t0 ~dur =
  if enabled t then begin
    Mutex.lock t.lock;
    Trace.add_span ~args t.tracer ~track ~name ~ts:(t0 -. t.epoch) ~dur;
    Mutex.unlock t.lock
  end

let save t ~path = if enabled t then Trace.save_jsonl t.tracer ~path
