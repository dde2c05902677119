type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- writing --- *)

(* The primitive [Printf]'s "%.Ng" ends in, without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let add_number b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else
    let s = format_float "%.15g" f in
    let s =
      if float_of_string s = f then s
      else
        let s = format_float "%.16g" f in
        if float_of_string s = f then s else format_float "%.17g" f
    in
    Buffer.add_string b s

let hex = "0123456789abcdef"

let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | '\000' .. '\031' as c ->
      Buffer.add_string b "\\u00";
      Buffer.add_char b hex.[Char.code c lsr 4];
      Buffer.add_char b hex.[Char.code c land 15]
    | ' ' .. '\127' as c -> Buffer.add_char b c
    | _ ->
      let d = String.get_utf_8_uchar s !i in
      let len = Uchar.utf_decode_length d in
      if Uchar.utf_decode_is_valid d then Buffer.add_substring b s !i len
      else Buffer.add_string b "\\ufffd";
      i := !i + len - 1);
    incr i
  done;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> add_number b f
  | Str s -> add_string b s
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* --- reading --- *)

exception Syntax of string

let of_string text =
  let len = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then text.[!pos] else '\000' in
  let at_end () = !pos >= len in
  let rec skip_ws () =
    if not (at_end ()) then
      match text.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if at_end () || text.[!pos] <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub text !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail "expected a value"
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d;
      incr pos
    done;
    !v
  in
  (* [pos] is just past the 'u' of a \u escape. *)
  let code_point () =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      if !pos + 2 > len || text.[!pos] <> '\\' || text.[!pos + 1] <> 'u' then
        fail "lone high surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else hi
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if at_end () then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if at_end () then fail "unterminated string";
        let e = text.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | _ ->
          decr pos;
          fail "bad escape");
        loop ()
      | '\000' .. '\031' ->
        decr pos;
        fail "control character in string"
      | c ->
        Buffer.add_char b c;
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while (not (at_end ())) && text.[!pos] >= '0' && text.[!pos] <= '9' do
        incr pos
      done;
      if !pos = first then fail "bad number"
    in
    if peek () = '-' then incr pos;
    (match peek () with
    | '0' -> incr pos
    | '1' .. '9' -> digits ()
    | _ -> fail "bad number");
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | 'e' | 'E' ->
      incr pos;
      (match peek () with '+' | '-' -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    float_of_string (String.sub text start (!pos - start))
  in
  (* [items close item] reads [item]s separated by commas up to [close];
     the opening bracket is already consumed. *)
  let items close item =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec loop acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
          incr pos;
          loop acc
        | c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      loop []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = parse_string () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      Arr (items ']' value)
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> Num (parse_number ())
    | _ -> fail "expected a value"
  in
  match
    let v = value () in
    skip_ws ();
    if not (at_end ()) then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Syntax msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
