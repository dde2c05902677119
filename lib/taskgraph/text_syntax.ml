(* One pass over the text: [next_line] records where each field of the
   current line starts and stops, so matching a keyword or reading a
   decimal int copies nothing, and only floats and error messages cut a
   field out of the text. *)

type scanner = {
  text : string;
  mutable next : int; (* start of the next line; past the end once done *)
  mutable line : int;
  mutable count : int;
  mutable starts : int array; (* field [i] is text.[starts.(i) .. stops.(i)) *)
  mutable stops : int array;
}

let scanner text =
  { text; next = 0; line = 0; count = 0; starts = Array.make 8 0; stops = Array.make 8 0 }

(* A field that is exactly "\r" is ignored, as documented. *)
let push_field s start stop =
  if not (stop - start = 1 && String.unsafe_get s.text start = '\r') then begin
    if s.count = Array.length s.starts then begin
      let grow a =
        let b = Array.make (2 * s.count) 0 in
        Array.blit a 0 b 0 s.count;
        b
      in
      s.starts <- grow s.starts;
      s.stops <- grow s.stops
    end;
    s.starts.(s.count) <- start;
    s.stops.(s.count) <- stop;
    s.count <- s.count + 1
  end

(* Splits text.[i ..) into fields up to the next '\n' or '#', field
   [start] (or -1) being open; returns where it stopped. *)
let rec split_fields s text len i start =
  if i = len then close_field s text len i start
  else
    match String.unsafe_get text i with
    | '\n' | '#' -> close_field s text len i start
    | ' ' | '\t' ->
      if start >= 0 then push_field s start i;
      split_fields s text len (i + 1) (-1)
    | _ -> split_fields s text len (i + 1) (if start < 0 then i else start)

and close_field s text len i start =
  if start >= 0 then begin
    (* The '\r' of a "\r\n" line end is not part of the last field. *)
    let at_crlf =
      i < len && String.unsafe_get text i = '\n' && String.unsafe_get text (i - 1) = '\r'
    in
    let stop = if at_crlf then i - 1 else i in
    if stop > start then push_field s start stop
  end;
  i

let rec line_end text len i =
  if i = len || String.unsafe_get text i = '\n' then i else line_end text len (i + 1)

let next_line s =
  let len = String.length s.text in
  if s.next > len then false
  else begin
    s.line <- s.line + 1;
    s.count <- 0;
    let stop = split_fields s s.text len s.next (-1) in
    s.next <- line_end s.text len stop + 1;
    true
  end

let line s = s.line

let num_fields s = s.count

let check_field s i =
  if i < 0 || i >= s.count then
    invalid_arg (Printf.sprintf "Text_syntax: no field %d on line %d" i s.line)

let field s i =
  check_field s i;
  String.sub s.text s.starts.(i) (s.stops.(i) - s.starts.(i))

let rec same_chars text at w k n =
  k = n
  || String.unsafe_get text (at + k) = String.unsafe_get w k
     && same_chars text at w (k + 1) n

let field_is s i w =
  check_field s i;
  let n = String.length w in
  s.stops.(i) - s.starts.(i) = n && same_chars s.text s.starts.(i) w 0 n

(* The value of text.[i .. stop) if it is all decimal digits, else -1. *)
let rec decimal text i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> decimal text (i + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

let int_field s i =
  check_field s i;
  let start = s.starts.(i) and stop = s.stops.(i) in
  (* 18 digits cannot overflow a 63-bit int. *)
  let v = if stop - start <= 18 then decimal s.text start stop 0 else -1 in
  if v >= 0 then Some v
  else int_of_string_opt (String.sub s.text start (stop - start))

let float_field s i = float_of_string_opt (field s i)

let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i else Buffer.add_string buf (string_of_int i)

(* The primitive [Printf]'s "%.17g" ends in, without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf f = Buffer.add_string buf (format_float "%.17g" f)
