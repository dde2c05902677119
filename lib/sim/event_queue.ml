(* A binary min-heap of events in one array, ordered by (time, sequence).
   The sequence number both breaks ties deterministically (FIFO among
   simultaneous events) and makes the order total. Times are finite, so
   plain float comparisons order them. *)

type 'a event = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a event array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let add q ~time payload =
  if (not (Float.is_finite time)) || time < 0.0 then
    invalid_arg (Printf.sprintf "Event_queue.add: bad time %g" time);
  let e = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let bigger = Array.make (Int.max 16 (2 * q.size)) e in
    Array.blit q.heap 0 bigger 0 q.size;
    q.heap <- bigger
  end;
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && before e q.heap.((!i - 1) / 2) do
    q.heap.(!i) <- q.heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  q.heap.(!i) <- e

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    let last = q.heap.(q.size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < q.size && before q.heap.(l + 1) q.heap.(l) then l + 1 else l in
      if c < q.size && before q.heap.(c) last then begin
        q.heap.(!i) <- q.heap.(c);
        i := c
      end
      else sifting := false
    done;
    q.heap.(!i) <- last;
    Some (top.time, top.payload)
  end

let peek_time q = if q.size = 0 then None else Some q.heap.(0).time

let length q = q.size

let is_empty q = q.size = 0
