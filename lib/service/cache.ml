module Metrics = Flb_obs.Metrics

(* Classic Hashtbl + doubly-linked recency list: the list head is the
   most recently used entry, the tail the eviction candidate. All
   mutation happens under [lock]. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option; (* towards the head (more recent) *)
  mutable next : 'a node option; (* towards the tail (less recent) *)
}

type 'a t = {
  capacity : int;
  index : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  lock : Mutex.t;
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  evictions : Metrics.Counter.t;
}

let create ?metrics ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  {
    capacity;
    index = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    lock = Mutex.create ();
    hits = Metrics.counter reg ~help:"schedule cache hits" "cache_hits_total";
    misses = Metrics.counter reg ~help:"schedule cache misses" "cache_misses_total";
    evictions =
      Metrics.counter reg ~help:"schedule cache LRU evictions"
        "cache_evictions_total";
  }

(* Both the cache key and the router's shard key hash the request's
   graph text byte for byte, through this one function, so "same shard"
   and "same cache entry" agree for any text — and neither side has to
   parse the graph to find either. *)
let text_digest graph = Digest.to_hex (Digest.string graph)

(* The digest of a graph is taken over its canonical serialization, so
   it is a pure function of the graph's structure and weights — two
   fresh constructions of the same graph digest byte-identically,
   whatever path each took through Builder/of_arrays/of_string. *)
let digest g = text_digest (Flb_taskgraph.Serial.to_string g)

(* The processor mask is part of the key: a schedule computed for a
   degraded machine (some processors masked dead, e.g. by a
   fault-reactive reschedule) must never be served for the full machine
   or for a different degradation, and vice versa. Dead ids are sorted
   and deduplicated so the key is canonical in the set. *)
let key_of_digest ~dead ~digest ~algo ~procs =
  let mask =
    match List.sort_uniq compare dead with
    | [] -> "all"
    | ds -> "dead:" ^ String.concat "." (List.map string_of_int ds)
  in
  Printf.sprintf "%s/%s/%d/%s" digest (String.lowercase_ascii algo) procs mask

let key ~dead ~graph ~algo ~procs =
  key_of_digest ~dead ~digest:(text_digest graph) ~algo ~procs

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- recency list surgery (call with the lock held) --- *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with
  | Some h -> h.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
    unlink t node;
    push_front t node

let find t k =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.index k with
      | Some node ->
        touch t node;
        Metrics.Counter.incr t.hits;
        Some node.value
      | None ->
        Metrics.Counter.incr t.misses;
        None)

let add t k v =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.index k with
      | Some node ->
        node.value <- v;
        touch t node
      | None ->
        if Hashtbl.length t.index >= t.capacity then begin
          match t.tail with
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.index lru.key;
            Metrics.Counter.incr t.evictions
          | None -> assert false (* capacity >= 1 and index non-empty *)
        end;
        let node = { key = k; value = v; prev = None; next = None } in
        push_front t node;
        Hashtbl.add t.index k node)

let length t = with_lock t (fun () -> Hashtbl.length t.index)

let capacity t = t.capacity

let hits t = Metrics.Counter.value t.hits

let misses t = Metrics.Counter.value t.misses

let evictions t = Metrics.Counter.value t.evictions

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
