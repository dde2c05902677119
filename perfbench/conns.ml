(* The benchmark's client connections, opened once per system under
   test and kept until it is stopped. The daemon and the router close a
   finished connection's descriptor twice (once per channel); if a new
   connection is accepted in between, it can be the one that gets
   closed. Never hanging up while a system serves keeps the benchmark
   clear of that race. Slot [control] carries warm-up, stats and
   scrapes; slot [i >= 0] is client thread [i]. *)

module Client = Flb_service.Client

let control = -1

let table : (int * int, Client.t) Hashtbl.t = Hashtbl.create 16

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let get ~port ~slot =
  match locked (fun () -> Hashtbl.find_opt table (port, slot)) with
  | Some c -> c
  | None ->
    let c = Client.connect ~port ~io_timeout_s:30.0 () in
    locked (fun () -> Hashtbl.replace table (port, slot) c);
    c

(* After a transport error the connection is unusable anyway. *)
let drop ~port ~slot =
  match locked (fun () -> Hashtbl.find_opt table (port, slot)) with
  | None -> ()
  | Some c ->
    locked (fun () -> Hashtbl.remove table (port, slot));
    Client.close c

(* Once the system on [port] has been stopped. *)
let forget port =
  let mine =
    locked (fun () ->
        let cs = Hashtbl.fold (fun (p, s) c acc -> if p = port then (s, c) :: acc else acc) table [] in
        List.iter (fun (s, _) -> Hashtbl.remove table (port, s)) cs;
        cs)
  in
  List.iter (fun (_, c) -> Client.close c) mine
