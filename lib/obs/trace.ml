open! Flb_prelude

type kind = Span of float | Instant | Counter of float

type event = {
  name : string;
  track : string;
  ts : float;
  kind : kind;
  args : (string * float) list;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  epoch : float;
  events : event Vec.t;
}

let null =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    epoch = 0.0;
    events = Vec.create ~capacity:0 ();
  }

let create ?(clock = Unix.gettimeofday) () =
  { enabled = true; clock; epoch = clock (); events = Vec.create ~capacity:256 () }

let enabled t = t.enabled

let now t = if t.enabled then t.clock () -. t.epoch else 0.0

let num_events t = Vec.length t.events

let add_span ?(args = []) t ~track ~name ~ts ~dur =
  if t.enabled then Vec.push t.events { name; track; ts; kind = Span dur; args }

let instant ?(args = []) ?ts t ~track name =
  if t.enabled then
    let ts = match ts with Some ts -> ts | None -> now t in
    Vec.push t.events { name; track; ts; kind = Instant; args }

let counter ?ts t ~track ~name value =
  if t.enabled then
    let ts = match ts with Some ts -> ts | None -> now t in
    Vec.push t.events { name; track; ts; kind = Counter value; args = [] }

let with_span ?args t ~track name f =
  if not t.enabled then f ()
  else begin
    let start = now t in
    Fun.protect
      ~finally:(fun () -> add_span ?args t ~track ~name ~ts:start ~dur:(now t -. start))
      f
  end

(* Tracks in order of first appearance define the row (tid) layout. *)
let tracks t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  Vec.iter
    (fun e ->
      if not (Hashtbl.mem seen e.track) then begin
        Hashtbl.add seen e.track (Hashtbl.length seen);
        order := e.track :: !order
      end)
    t.events;
  (List.rev !order, fun track -> Hashtbl.find seen track)

let num_fields args = List.map (fun (k, v) -> (k, Json.Num v)) args

let add_args buf = function
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":";
    Json.to_buffer buf (Json.Obj (num_fields args))

(* Same emission idiom as Flb_platform.Chrome_trace: a "traceEvents"
   array, one thread (row) per track, microsecond timestamps. *)
let to_chrome_json ?(name = "flb-obs") t =
  let track_order, tid_of = tracks t in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit fmt =
    if !first then first := false else Buffer.add_string buf ",\n";
    Printf.bprintf buf fmt
  in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  emit "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":%a}}"
    Json.to_buffer (Json.Str name);
  List.iter
    (fun track ->
      emit
        "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%a}}"
        (tid_of track) Json.to_buffer (Json.Str track))
    track_order;
  Vec.iter
    (fun e ->
      let tid = tid_of e.track in
      let us x = x *. 1e6 in
      match e.kind with
      | Span dur ->
        emit "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"name\":%a,\"ts\":%.3f,\"dur\":%.3f%a}"
          tid Json.to_buffer (Json.Str e.name) (us e.ts) (us dur) add_args e.args
      | Instant ->
        emit "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"name\":%a,\"ts\":%.3f,\"s\":\"t\"%a}"
          tid Json.to_buffer (Json.Str e.name) (us e.ts) add_args e.args
      | Counter v ->
        emit "{\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"name\":%a,\"ts\":%.3f%a}"
          tid Json.to_buffer (Json.Str e.name) (us e.ts) add_args [ ("value", v) ])
    t.events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* The JSONL trace schema, one object per line: an optional meta line of
   string fields, then one line per event — its type, track, name and
   ts, then the span's dur or the counter's value, then the args. *)
let to_jsonl ?(meta = []) t =
  let buf = Buffer.create 4096 in
  let line fields =
    Json.to_buffer buf (Json.Obj fields);
    Buffer.add_char buf '\n'
  in
  if meta <> [] then
    line (("type", Json.Str "meta") :: List.map (fun (k, v) -> (k, Json.Str v)) meta);
  Vec.iter
    (fun e ->
      let head typ =
        [
          ("type", Json.Str typ);
          ("track", Json.Str e.track);
          ("name", Json.Str e.name);
          ("ts", Json.Num e.ts);
        ]
      in
      line
        (match e.kind with
        | Span dur -> head "span" @ (("dur", Json.Num dur) :: num_fields e.args)
        | Instant -> head "instant" @ num_fields e.args
        | Counter v -> head "counter" @ [ ("value", Json.Num v) ]))
    t.events;
  Buffer.contents buf

let save_file content ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let save_chrome ?name t ~path = save_file (to_chrome_json ?name t) ~path

let save_jsonl t ~path = save_file (to_jsonl t) ~path
