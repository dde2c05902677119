(* The event log of a real engine run: one fixed-size ring of events per
   domain, sized by the engine so a run's log never wraps, and written
   only on fault or at the end of the run.

   Each domain owns preallocated parallel int/float arrays and a cursor,
   writes only its own ring, and overwrites its own oldest entries on
   wrap — no lock, no growth; a call allocates only the boxes of its
   float arguments. Reads (a dump) may race concurrent writers from other
   domains; a post-mortem snapshot tolerates a torn newest entry. *)

type kind = Task | Steal | Recover | Stall | Killed | Resched

let kind_to_int = function
  | Task -> 0
  | Steal -> 1
  | Recover -> 2
  | Stall -> 3
  | Killed -> 4
  | Resched -> 5

let kind_of_int = function
  | 0 -> Task
  | 1 -> Steal
  | 2 -> Recover
  | 3 -> Stall
  | 4 -> Killed
  | 5 -> Resched
  | n -> invalid_arg (Printf.sprintf "Flight_recorder.kind_of_int: %d" n)

let kind_name = function
  | Task -> "task"
  | Steal -> "steal"
  | Recover -> "recover"
  | Stall -> "stall"
  | Killed -> "killed"
  | Resched -> "resched"

type t = {
  capacity : int;
  kinds : int array array; (* [domain].[slot] *)
  ts : float array array;
  dur : float array array;
  a : int array array; (* task id, frontier size, ... *)
  b : float array array; (* victim, stall horizon, latency, ... *)
  total : int array; (* events ever recorded; slot [d] written only by [d] *)
}

let create ~capacity ~domains =
  if capacity < 1 then invalid_arg "Flight_recorder: capacity must be >= 1";
  if domains < 1 then invalid_arg "Flight_recorder: domains must be >= 1";
  {
    capacity;
    kinds = Array.init domains (fun _ -> Array.make capacity 0);
    ts = Array.init domains (fun _ -> Array.make capacity 0.0);
    dur = Array.init domains (fun _ -> Array.make capacity 0.0);
    a = Array.init domains (fun _ -> Array.make capacity (-1));
    b = Array.init domains (fun _ -> Array.make capacity (-1.0));
    total = Array.make domains 0;
  }

let capacity t = t.capacity

let domains t = Array.length t.total

let recorded t ~domain = t.total.(domain)

let stored t ~domain = Int.min t.total.(domain) t.capacity

let record t ~domain kind ~ts ~dur ~a ~b =
  let slot = t.total.(domain) mod t.capacity in
  t.kinds.(domain).(slot) <- kind_to_int kind;
  t.ts.(domain).(slot) <- ts;
  t.dur.(domain).(slot) <- dur;
  t.a.(domain).(slot) <- a;
  t.b.(domain).(slot) <- b;
  t.total.(domain) <- t.total.(domain) + 1

(* Oldest-to-newest within each domain, domains in order. *)
let iter t f =
  for d = 0 to domains t - 1 do
    let n = stored t ~domain:d in
    let first = t.total.(d) - n in
    for i = 0 to n - 1 do
      let slot = (first + i) mod t.capacity in
      f ~domain:d
        (kind_of_int t.kinds.(d).(slot))
        ~ts:t.ts.(d).(slot) ~dur:t.dur.(d).(slot) ~a:t.a.(d).(slot)
        ~b:t.b.(d).(slot)
    done
  done

(* One replay serves both formats: Trace writes the JSONL line schema
   Analyze reads and the Chrome trace-event JSON Perfetto opens. *)
let to_trace t =
  let trace = Trace.create ~clock:(fun () -> 0.0) () in
  iter t (fun ~domain kind ~ts ~dur ~a ~b ->
      let track = Printf.sprintf "D%d" domain in
      let mark args = Trace.instant trace ~ts ~track ~args (kind_name kind) in
      match kind with
      | Task -> Trace.add_span trace ~track ~name:(Printf.sprintf "task %d" a) ~ts ~dur
      | Steal | Recover ->
        mark (("task", float_of_int a) :: (if b < 0.0 then [] else [ ("victim", b) ]))
      | Stall -> mark [ ("until", b) ]
      | Killed -> mark []
      | Resched -> mark [ ("frontier", float_of_int a); ("latency_ns", b) ]);
  trace

let to_jsonl ?meta t = Trace.to_jsonl ?meta (to_trace t)

let dump ?meta ?name t ~path =
  if Filename.check_suffix path ".jsonl" then
    Out_channel.with_open_text path (fun oc -> output_string oc (to_jsonl ?meta t))
  else Trace.save_chrome ?name (to_trace t) ~path
