type segment = { from_time : float; until_time : float; running : int }

(* ASAP execution on unbounded processors with free communication: the
   same interval structure used by Width.max_ready_bound. *)
let intervals g =
  let n = Taskgraph.num_tasks g in
  let enable = Array.make n 0.0 in
  let finish = Array.make n 0.0 in
  Array.iter
    (fun t ->
      finish.(t) <- enable.(t) +. Taskgraph.comp g t;
      Taskgraph.iter_succs g t (fun s _ ->
          if finish.(t) > enable.(s) then enable.(s) <- finish.(t)))
    (Topo.order g);
  (enable, finish)

let compute g =
  let n = Taskgraph.num_tasks g in
  if n = 0 then []
  else begin
    let enable, finish = intervals g in
    (* endpoint sweep; finishes before starts at equal times *)
    let events =
      Array.concat
        [
          Array.init n (fun t -> (finish.(t), 0));
          Array.init n (fun t -> (enable.(t), 1));
        ]
    in
    Array.sort compare events;
    let segments = ref [] in
    let running = ref 0 in
    let cursor = ref 0.0 in
    Array.iter
      (fun (time, kind) ->
        if time > !cursor then begin
          (match !segments with
          | { running = r; _ } :: _ when r = !running ->
            (* merge with the previous segment *)
            segments :=
              (match !segments with
              | s :: rest -> { s with until_time = time } :: rest
              | [] -> assert false)
          | _ ->
            segments :=
              { from_time = !cursor; until_time = time; running = !running }
              :: !segments);
          cursor := time
        end;
        if kind = 1 then incr running else decr running)
      events;
    List.rev !segments
  end

let span g =
  List.fold_left (fun acc s -> Float.max acc s.until_time) 0.0 (compute g)

let average_parallelism g =
  if Taskgraph.num_tasks g = 0 then invalid_arg "Profile.average_parallelism: empty graph";
  let total = Taskgraph.total_comp g in
  let sp = span g in
  if sp <= 0.0 then invalid_arg "Profile.average_parallelism: zero span";
  total /. sp

let peak_parallelism g =
  List.fold_left (fun acc s -> max acc s.running) 0 (compute g)

let render ?(width = 60) ?(height = 10) g =
  let segments = compute g in
  match segments with
  | [] -> "(empty graph)\n"
  | _ ->
    let sp = List.fold_left (fun acc s -> Float.max acc s.until_time) 0.0 segments in
    let peak = List.fold_left (fun acc s -> max acc s.running) 0 segments in
    if sp <= 0.0 || peak = 0 then "(zero-length profile)\n"
    else begin
      (* height of each column = running count at the column's mid-time *)
      let column_height c =
        let time = (float_of_int c +. 0.5) /. float_of_int width *. sp in
        match
          List.find_opt (fun s -> s.from_time <= time && time < s.until_time) segments
        with
        | Some s -> s.running
        | None -> 0
      in
      let buf = Buffer.create ((width + 16) * height) in
      for row = height downto 1 do
        let threshold = float_of_int row /. float_of_int height *. float_of_int peak in
        Buffer.add_string buf
          (Printf.sprintf "%5.0f |" (Float.round threshold));
        for c = 0 to width - 1 do
          Buffer.add_char buf
            (if float_of_int (column_height c) >= threshold then '#' else ' ')
        done;
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf
        (Printf.sprintf "      +%s\n       0%*s%.6g\n" (String.make width '-')
           (width - 8) "" sp);
      Buffer.contents buf
    end
