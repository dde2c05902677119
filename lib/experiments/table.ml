type row = Cells of string list | Separator

type t = { header : string list; mutable rows : row list }

let create ~header = { header; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.header then
    invalid_arg "Table.add_row: row width differs from header";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all_cell_rows =
    t.header :: List.filter_map (function Cells c -> Some c | Separator -> None) rows
  in
  let cols = List.length t.header in
  let width c =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row c)))
      0 all_cell_rows
  in
  let widths = List.init cols width in
  let buf = Buffer.create 512 in
  let emit_cells cells =
    List.iteri
      (fun c cell ->
        Buffer.add_string buf cell;
        if c < cols - 1 then
          Buffer.add_string buf
            (String.make (List.nth widths c - String.length cell + 2) ' '))
      cells;
    Buffer.add_char buf '\n'
  in
  let separator () =
    emit_cells (List.map (fun w -> String.make w '-') widths)
  in
  emit_cells t.header;
  separator ();
  List.iter (function Cells c -> emit_cells c | Separator -> separator ()) rows;
  Buffer.contents buf

let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f

let domains_cell ~cores d = if d > cores then Printf.sprintf "%d*" d else string_of_int d

let cores_note ~cores =
  Printf.sprintf
    "host: %d cores (Domain.recommended_domain_count); * = more domains than \
     cores, oversubscribed\n"
    cores
