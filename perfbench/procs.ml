(* The system under test as real processes: `flb serve` and `flb route`
   started fresh on ephemeral ports for every run and stopped (and
   reaped) afterwards, so no run measures a daemon's history. *)

type t = { name : string; pid : int; port : int; out : Unix.file_descr }

let live : t list ref = ref []

let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

(* "flb daemon listening on 127.0.0.1:40123 (...)" -> 40123 *)
let port_of_banner line =
  let marker = "listening on " in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length line then None
    else if String.sub line i m = marker then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    let stop =
      match String.index_from_opt line start ' ' with
      | Some j -> j
      | None -> String.length line
    in
    let addr = String.sub line start (stop - start) in
    match String.rindex_opt addr ':' with
    | None -> None
    | Some k -> int_of_string_opt (String.sub addr (k + 1) (String.length addr - k - 1)))

(* Read the child's stdout until its listening banner, with a deadline:
   a child that dies or hangs during start-up fails the run instead of
   blocking it. *)
let read_banner ~name fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec loop () =
    let contents = Buffer.contents buf in
    match String.index_opt contents '\n' with
    | Some i -> (
      let line = String.sub contents 0 i in
      match port_of_banner line with
      | Some p -> p
      | None ->
        let rest = String.sub contents (i + 1) (String.length contents - i - 1) in
        Buffer.clear buf;
        Buffer.add_string buf rest;
        loop ())
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then failwith (name ^ ": no listening banner");
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith (name ^ ": exited during start-up");
        Buffer.add_subbytes buf chunk 0 n);
      loop ()
  in
  loop ()

let spawn ~exe ~name args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (exe :: args) in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let t = { name; pid; port = 0; out = r } in
  with_live (fun () -> live := t :: !live);
  let port = read_banner ~name r ~timeout_s:30.0 in
  let t' = { t with port } in
  with_live (fun () -> live := t' :: List.filter (fun x -> x.pid <> pid) !live);
  t'

let serve ?(args = []) ~exe () = spawn ~exe ~name:"flb serve" ([ "serve"; "--port"; "0" ] @ args)

let route ~exe ~backends =
  spawn ~exe ~name:"flb route"
    [
      "route";
      "--port";
      "0";
      "--backends";
      String.concat "," (List.map (fun b -> string_of_int b.port) backends);
    ]

(* Peak resident set (VmHWM) in MiB, read while the process is alive. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
          | [] -> acc)
        | _ -> acc)
      Float.nan (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Host-wide (stolen, total) CPU jiffies from /proc/stat: time the
   hypervisor gave this machine's CPUs to other guests. (0, 0) where
   the file is missing. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = Array.of_list (List.filter_map int_of_string_opt fields) in
      let upto = min 8 (Array.length v) in
      let total = Array.fold_left ( + ) 0 (Array.sub v 0 upto) in
      ((if upto = 8 then v.(7) else 0), total)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* SIGTERM, then SIGKILL if the child has not gone within 5 s; always
   reaped. *)
let stop t =
  with_live (fun () -> live := List.filter (fun x -> x.pid <> t.pid) !live);
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec reap () =
    match waitpid_retry [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry [] t.pid)
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  Conns.forget t.port;
  try Unix.close t.out with Unix.Unix_error _ -> ()

let stop_all () = List.iter stop (with_live (fun () -> !live))

let () =
  at_exit stop_all;
  (* A benchmark killed by a signal still stops its children. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]
