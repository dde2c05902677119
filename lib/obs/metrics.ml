open! Flb_prelude

(* Counters and gauges are lock-free atomics so hot paths stay cheap even
   when several domains share a series; the registry index and the
   histograms (whose buckets are a growable structure) are guarded by
   mutexes instead. *)

module Counter = struct
  type t = { name : string; help : string; value : int Atomic.t }

  let incr c = Atomic.incr c.value

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add c.value n)

  let value c = Atomic.get c.value

  let name c = c.name
end

module Gauge = struct
  type t = { name : string; help : string; value : float Atomic.t }

  let set g v = Atomic.set g.value v

  let rec add g v =
    let old = Atomic.get g.value in
    if not (Atomic.compare_and_set g.value old (old +. v)) then add g v

  let value g = Atomic.get g.value

  let name g = g.name
end

module Histogram = struct
  type t = {
    name : string;
    help : string;
    hist : Stats.Log_histogram.t;
    lock : Mutex.t;
  }

  let with_lock h f =
    Mutex.lock h.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

  let observe h x = with_lock h (fun () -> Stats.Log_histogram.observe h.hist x)

  let count h = with_lock h (fun () -> Stats.Log_histogram.count h.hist)

  let sum h = with_lock h (fun () -> Stats.Log_histogram.sum h.hist)

  let quantile h ~q = with_lock h (fun () -> Stats.Log_histogram.quantile h.hist ~q)

  let name h = h.name
end

type metric =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type t = {
  index : (string, metric) Hashtbl.t;
  mutable order : metric list; (* reversed registration order *)
  lock : Mutex.t;
}

let create () = { index = Hashtbl.create 32; order = []; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t name metric =
  Hashtbl.add t.index name metric;
  t.order <- metric :: t.order;
  metric

let kind_clash name =
  invalid_arg ("Metrics: " ^ name ^ " already registered with a different kind")

let counter t ?(help = "") name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.index name with
      | Some (C c) -> c
      | Some _ -> kind_clash name
      | None -> (
        match register t name (C { Counter.name; help; value = Atomic.make 0 }) with
        | C c -> c
        | _ -> assert false))

let gauge t ?(help = "") name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.index name with
      | Some (G g) -> g
      | Some _ -> kind_clash name
      | None -> (
        match
          register t name (G { Gauge.name; help; value = Atomic.make 0.0 })
        with
        | G g -> g
        | _ -> assert false))

let histogram t ?(help = "") ?gamma name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.index name with
      | Some (H h) -> h
      | Some _ -> kind_clash name
      | None -> (
        match
          register t name
            (H
               {
                 Histogram.name;
                 help;
                 hist = Stats.Log_histogram.create ?gamma ();
                 lock = Mutex.create ();
               })
        with
        | H h -> h
        | _ -> assert false))

let metrics t = with_lock t (fun () -> List.rev t.order)

(* Prometheus metric names allow [a-zA-Z0-9_:] and must not start with a
   digit; anything else ('-' in "DSC-LLB", spaces, quotes, ...) is folded
   to '_', and a leading digit (or an empty name) gets a '_' prefix so
   the sanitized name is always a valid exposition token. *)
let sanitize name =
  let folded =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      (String.lowercase_ascii name)
  in
  match folded with
  | "" -> "_"
  | s -> (match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s)

(* HELP text is free-form but line-oriented: a raw '\n' would start a new
   exposition line mid-comment and corrupt the scrape. Prometheus defines
   exactly two escapes for HELP ('\\' and '\n'). *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Label values additionally escape '"' (they are double-quoted). *)
let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let header name help kind =
    if help <> "" then line "# HELP %s %s" name (escape_help help);
    line "# TYPE %s %s" name kind
  in
  List.iter
    (fun metric ->
      match metric with
      | C c ->
        let name = sanitize c.Counter.name in
        header name c.Counter.help "counter";
        line "%s %d" name (Counter.value c)
      | G g ->
        let name = sanitize g.Gauge.name in
        header name g.Gauge.help "gauge";
        line "%s %g" name (Gauge.value g)
      | H h ->
        let name = sanitize h.Histogram.name in
        header name h.Histogram.help "summary";
        Histogram.with_lock h (fun () ->
            let hist = h.Histogram.hist in
            if Stats.Log_histogram.count hist > 0 then
              List.iter
                (fun q ->
                  line "%s{quantile=\"%g\"} %g" name q
                    (Stats.Log_histogram.quantile hist ~q))
                [ 0.5; 0.95; 0.99 ];
            line "%s_sum %g" name (Stats.Log_histogram.sum hist);
            line "%s_count %d" name (Stats.Log_histogram.count hist)))
    (metrics t);
  Buffer.contents buf

let json t =
  let histogram h =
    Histogram.with_lock h (fun () ->
        let hist = h.Histogram.hist in
        let sum = ("sum", Json.Num (Stats.Log_histogram.sum hist)) in
        match Stats.Log_histogram.count hist with
        | 0 -> Json.Obj [ ("count", Json.int 0); sum ]
        | n ->
          Json.Obj
            [
              ("count", Json.int n);
              sum;
              ("min", Json.Num (Stats.Log_histogram.min hist));
              ("max", Json.Num (Stats.Log_histogram.max hist));
              ("p50", Json.Num (Stats.Log_histogram.p50 hist));
              ("p95", Json.Num (Stats.Log_histogram.p95 hist));
              ("p99", Json.Num (Stats.Log_histogram.p99 hist));
            ])
  in
  Json.Obj
    (List.map
       (function
         | C c -> (c.Counter.name, Json.int (Counter.value c))
         | G g -> (g.Gauge.name, Json.Num (Gauge.value g))
         | H h -> (h.Histogram.name, histogram h))
       (metrics t))

let to_json t = Json.to_string (json t)

let save_prometheus t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_prometheus t))

let save_json t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))
