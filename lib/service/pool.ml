type t = {
  jobs : (unit -> unit) Queue.t;
  queue_capacity : int;
  lock : Mutex.t;
  not_empty : Condition.t;
  mutable closed : bool;
  mutable workers : Flb_prelude.Workers.t option;
}

let worker t _index =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.jobs && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    match Queue.take_opt t.jobs with
    | None ->
      (* empty and closed: graceful drain complete *)
      Mutex.unlock t.lock;
      ()
    | Some job ->
      Mutex.unlock t.lock;
      (try job () with _ -> ());
      loop ()
  in
  loop ()

let create ~domains ~queue_capacity () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  if queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity must be >= 1";
  let t =
    {
      jobs = Queue.create ();
      queue_capacity;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      closed = false;
      workers = None;
    }
  in
  t.workers <- Some (Flb_prelude.Workers.spawn ~count:domains (worker t));
  t

let submit t job =
  Mutex.lock t.lock;
  let accepted = (not t.closed) && Queue.length t.jobs < t.queue_capacity in
  if accepted then begin
    Queue.push job t.jobs;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.lock;
  accepted

let pending t =
  Mutex.lock t.lock;
  let n = Queue.length t.jobs in
  Mutex.unlock t.lock;
  n

let domains t =
  match t.workers with Some w -> Flb_prelude.Workers.count w | None -> 0

let queue_capacity t = t.queue_capacity

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock;
  match t.workers with
  | Some w -> Flb_prelude.Workers.join w
  | None -> ()
