(* Single-threaded timings of the layers' public functions on the
   workload's own graphs and frames, taken after the timed window (with
   the system under test stopped) so they neither disturb nor are
   disturbed by the load. Each call is wrapped in a benchmark span. *)

open Flb_taskgraph
module Wire = Flb_service.Wire
module Cache = Flb_service.Cache

let now = Unix.gettimeofday

let reps = 5

(* Median over [reps] timed calls, in seconds. *)
let time ~spans ~name f =
  let s = Sample.create () in
  for _ = 1 to reps do
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    let d = now () -. t0 in
    Spans.add spans ~track:"layers" name ~t0 ~dur:d;
    Sample.add s d
  done;
  Sample.median s

(* Allocation of one call: best of [reps], because an OCaml 5
   [Gc.allocated_bytes] delta sporadically includes a runtime-internal
   lump unrelated to the code under test. *)
let alloc_bytes f =
  let best = ref Float.infinity in
  for _ = 1 to reps do
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Gc.allocated_bytes () -. before)
  done;
  !best

let mean_over xs f = Sample.mean (Sample.of_list (List.map f xs))

let frame_bytes payload = float_of_int (4 + String.length payload)

(* wire: encode/decode time and frame size of real requests and
   answers; each answer is decoded from its own encoding. *)
let wire ~spans (requests : Wire.request list) (responses : Wire.response list) =
  let enc_req r = Wire.encode_request ~trace_id:1L r in
  let enc_resp r = Wire.encode_response ~trace_id:1L r in
  [
    ( "wire.encode_us",
      1e6 *. mean_over requests (fun r -> time ~spans ~name:"encode" (fun () -> enc_req r)) );
    ( "wire.decode_us",
      1e6
      *. mean_over responses (fun r ->
             let p = enc_resp r in
             time ~spans ~name:"decode" (fun () -> Wire.decode_response p)) );
    ("wire.request_bytes", mean_over requests (fun r -> frame_bytes (enc_req r)));
    ("wire.response_bytes", mean_over responses (fun r -> frame_bytes (enc_resp r)));
  ]

(* serial, cache and scheduler costs: medians over the graphs. *)
let graphs ~spans ~procs (gs : Taskgraph.t list) =
  let machine = Flb_platform.Machine.clique ~num_procs:procs in
  let texts = List.map (fun g -> (g, Serial.to_string g)) gs in
  let median_over f = Sample.median (Sample.of_list (List.map f texts)) in
  let per_task g x = x /. float_of_int (max 1 (Taskgraph.num_tasks g)) in
  let flb g () = Inputs.algo.Flb_experiments.Registry.run g machine in
  let mcp g () = Flb_schedulers.Mcp.schedule_length g machine in
  [
    ( "serial.parse_us",
      1e6 *. median_over (fun (_, t) -> time ~spans ~name:"parse" (fun () -> Serial.of_string t)) );
    ( "cache.digest_us",
      1e6 *. median_over (fun (g, _) -> time ~spans ~name:"digest" (fun () -> Cache.digest g)) );
    ( "cache.key_us",
      1e6
      *. median_over (fun (_, t) ->
             time ~spans ~name:"key" (fun () ->
                 Cache.key ~dead:[] ~graph:t ~algo:Inputs.algo_name ~procs)) );
    ("flb.ns_per_task", 1e9 *. median_over (fun (g, _) -> per_task g (time ~spans ~name:"flb" (flb g))));
    ("flb.bytes_per_task", median_over (fun (g, _) -> per_task g (alloc_bytes (flb g))));
    ("mcp.ns_per_task", 1e9 *. median_over (fun (g, _) -> per_task g (time ~spans ~name:"mcp" (mcp g))));
  ]
