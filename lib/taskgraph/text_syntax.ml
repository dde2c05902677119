(* One pass over the text: [next_line] records where each field of the
   current line starts and stops, so matching a keyword or reading a
   decimal number copies nothing, and only error messages and the rare
   number the C library must read cut a field out of the text. *)

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

(* --- Exact decimal floats without the C library ---

   [float_field] and [add_float] handle the plain decimals the formats
   read and write most with integer arithmetic, and hand every other
   input to the C library ([strtod] behind [float_of_string], [printf]
   behind [caml_format_float]). Both C routines round exactly, half to
   even, so the integer paths must too. Their 2-limb products stay
   inside 63-bit ints; the bounds are worked out where they are used. *)

let pow5 = Array.init 23 (fun k -> int_of_float (5.0 ** float_of_int k))

(* 10^0 .. 10^22, each exact as a double. *)
let pow10f = Array.init 23 (fun k -> 10.0 ** float_of_int k)

let mask52 = (1 lsl 52) - 1

let mask60 = (1 lsl 60) - 1

let two53 = 1 lsl 53

(* The sign of m·2^u − n·5^r·2^w, for m < 2^60, n < 2^55, r <= 22 and
   shifts that keep both sides below 2^120, compared in two 60-bit
   limbs. *)
let compare_scaled m u n r w =
  let p = pow5.(r) in
  let n1 = n lsr 30 and n0 = n land 0x3fffffff in
  let p1 = p lsr 30 and p0 = p land 0x3fffffff in
  (* n1 < 2^25, p1 < 2^22: mid < 2^56 and lo < 2^61. *)
  let mid = (n1 * p0) + (n0 * p1) in
  let lo = (n0 * p0) + ((mid land 0x3fffffff) lsl 30) in
  let hi = (n1 * p1) + (mid lsr 30) + (lo lsr 60) and lo = lo land mask60 in
  let rh = (hi lsl w) lor (lo lsr (60 - w)) and rl = (lo lsl w) land mask60 in
  let lh = m lsr (60 - u) and ll = (m lsl u) land mask60 in
  if lh <> rh then compare lh rh else compare ll rl

(* The sign of m/10^r − (2c + 1)·2^(k−1), the midpoint between c·2^k
   and the next double up. *)
let above_midpoint m r c k =
  let t = r + k - 1 in
  if t >= 0 then compare_scaled m 0 ((2 * c) + 1) r t
  else compare_scaled m (-t) ((2 * c) + 1) r 0

(* Stores in a.(j) the double nearest ±m/10^r, ties to even, for
   2^53 <= m < 2^60 and r <= 22. [float m /. 10^r] rounds twice, so it
   can sit an ulp or two off; walk c·2^k (c in [2^52, 2^53)) up or down
   until m/10^r lies between its two midpoints. The result, at least
   1e-22 and below 2^60, is normal. Storing it rather than returning it
   keeps it unboxed. *)
let store_nearest a j neg m r =
  let bits = Int64.bits_of_float (float_of_int m /. Array.unsafe_get pow10f r) in
  let c = ref ((Int64.to_int bits land mask52) lor (1 lsl 52)) in
  let k = ref (Int64.to_int (Int64.shift_right_logical bits 52) - 1075) in
  let settled = ref false in
  while not !settled do
    let up = above_midpoint m r !c !k in
    if up > 0 || (up = 0 && !c land 1 = 1) then begin
      incr c;
      if !c = two53 then begin
        c := 1 lsl 52;
        incr k
      end
    end
    else begin
      (* The midpoint below c·2^k is the one above its predecessor. *)
      let pc = if !c = 1 lsl 52 then two53 - 1 else !c - 1 in
      let pk = if !c = 1 lsl 52 then !k - 1 else !k in
      let down = above_midpoint m r pc pk in
      if down < 0 || (down = 0 && !c land 1 = 1) then begin
        c := pc;
        k := pk
      end
      else settled := true
    end
  done;
  let x = Float.ldexp (float_of_int !c) !k in
  a.(j) <- (if neg then -.x else x)

let float_field s i a j =
  check_field s i;
  let text = s.text and start = s.starts.(i) and stop = s.stops.(i) in
  let c0 = String.unsafe_get text start in
  let neg = c0 = '-' in
  (* [+-]digits[.digits]: [m] gathers the digits, [nsig] counts them from
     the first non-zero one, [frac] counts those after the point (-1
     before it). *)
  let m = ref 0 and nsig = ref 0 and frac = ref (-1) and digits = ref 0 in
  let k = ref (if neg || c0 = '+' then start + 1 else start) in
  while !k < stop do
    (match String.unsafe_get text !k with
    | '0' .. '9' as c ->
      if !nsig > 0 || c <> '0' then incr nsig;
      if !nsig <= 18 then m := (10 * !m) + Char.code c - 48;
      if !frac >= 0 then incr frac;
      incr digits;
      incr k
    | '.' when !frac < 0 ->
      frac := 0;
      incr k
    | _ ->
      digits := 0;
      k := stop);
  done;
  let r = if !frac < 0 then 0 else !frac in
  if !digits > 0 && !nsig <= 18 && r <= 22 then begin
    (* Below 2^53, m and 10^r are exact doubles and one division rounds
       once. *)
    if !m < two53 then begin
      let x = float_of_int !m /. Array.unsafe_get pow10f r in
      a.(j) <- (if neg then -.x else x)
    end
    else store_nearest a j neg !m r;
    true
  end
  else
    match float_of_string_opt (String.sub text start (stop - start)) with
    | Some x ->
      a.(j) <- x;
      true
    | None -> false

let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i else Buffer.add_string buf (string_of_int i)

(* The primitive [Printf]'s "%.17g" ends in, without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* round(f·2^e·10^(16−ex)), half to even, for f < 2^53, 0 <= 16 − ex <=
   21 and 2^e·10^(16−ex) within the range [render] gives it: f·5^(16−ex)
   < 2^102 is formed in two 52-bit limbs, then shifted right by
   s = ex − e − 16 <= 46 bits, or left by at most 4 where s < 0 (the
   result is then below 10^18). *)
let digits17 f e ex =
  let p = pow5.(16 - ex) in
  let fh = f lsr 26 and fl = f land 0x3ffffff in
  let ph = p lsr 26 and pl = p land 0x3ffffff in
  let mid = (fh * pl) + (fl * ph) in
  let lo = (fl * pl) + ((mid land 0x3ffffff) lsl 26) in
  let hi = (fh * ph) + (mid lsr 26) + (lo lsr 52) and lo = lo land mask52 in
  let s = ex - e - 16 in
  if s <= 0 then ((hi lsl 52) lor lo) lsl -s
  else begin
    let q = (hi lsl (52 - s)) lor (lo lsr s) in
    let rest = lo land ((1 lsl s) - 1) and half = 1 lsl (s - 1) in
    if rest > half || (rest = half && q land 1 = 1) then q + 1 else q
  end

let e16 = 10_000_000_000_000_000

(* "%.17g" of d·10^(ex−16), d having 17 digits and −4 <= ex <= 16: the
   plain notation, with the fraction's trailing zeros and a bare point
   dropped. *)
let emit buf neg d ex =
  if neg then Buffer.add_char buf '-';
  let rec zeros d z = if d mod 10 = 0 then zeros (d / 10) (z + 1) else z in
  let point = if ex >= 0 then ex + 1 else -1 in
  let n = Int.max (Int.max point 1) (17 - zeros d 0) in
  if ex < 0 then begin
    Buffer.add_string buf "0.";
    for _ = 2 to -ex do
      Buffer.add_char buf '0'
    done
  end;
  let d = ref d in
  for i = 0 to n - 1 do
    if i = point then Buffer.add_char buf '.';
    let q = !d / e16 in
    Buffer.add_char buf (Char.unsafe_chr (48 + q));
    d := (!d - (q * e16)) * 10
  done

(* [ex] starts at most one below ⌊log10 |x|⌋ and rises until the digits
   fit in 17 (a rounding carry to 10^17 rises once more). *)
let rec render buf x f e ex =
  if ex > 16 then Buffer.add_string buf (format_float "%.17g" x)
  else
    let d = digits17 f e ex in
    if d >= 10 * e16 then render buf x f e (ex + 1)
    else if ex < -4 then Buffer.add_string buf (format_float "%.17g" x)
    else emit buf (x < 0.0) d ex

let add_float buf x =
  let bits = Int64.bits_of_float x in
  (* x = f·2^e with f in [2^52, 2^53) when x is normal. *)
  let b = (Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff) - 1023 in
  if x = 0.0 then Buffer.add_string buf (if Float.sign_bit x then "-0" else "0")
  else if b < -14 || b > 56 then Buffer.add_string buf (format_float "%.17g" x)
  else
    (* ⌊b·log10 2⌋, exact for |b| < 1650. *)
    render buf x ((Int64.to_int bits land mask52) lor (1 lsl 52)) (b - 52) ((b * 78913) asr 18)
