(* Exactness of the number codec the text formats share: [add_float]
   must print what [Printf "%.17g"] prints, byte for byte, and
   [float_field] must read what [float_of_string_opt] reads, bit for
   bit. Both have integer paths for plain decimals and hand every other
   input to the C library; allocation tells the two apart (the integer
   paths allocate nothing), so the tests also pin which inputs take
   which path. *)

open! Flb_taskgraph

let rng seed = Random.State.make [| seed |]

let render x =
  let buf = Buffer.create 32 in
  Text_syntax.add_float buf x;
  Buffer.contents buf

(* Returns the "%.17g" texts, for reading back. *)
let check_renders what xs =
  Array.map
    (fun x ->
      let want = Printf.sprintf "%.17g" x and got = render x in
      if got <> want then
        Alcotest.failf "%s: add_float %h wrote %S, %%.17g gives %S" what x got want;
      want)
    xs

let show = function Some x -> Printf.sprintf "Some %h" x | None -> "None"

(* Reads every field of [fields] (no blanks, '#' or line ends in them)
   both ways, 4096 to a line. *)
let check_reads what fields =
  let a = [| 0.0 |] in
  let n = Array.length fields in
  for first = 0 to (n - 1) / 4096 do
    let line = Array.sub fields (first * 4096) (Int.min 4096 (n - (first * 4096))) in
    let sc = Text_syntax.scanner (String.concat " " (Array.to_list line)) in
    ignore (Text_syntax.next_line sc);
    Array.iteri
      (fun i s ->
        let want = float_of_string_opt s in
        let got = if Text_syntax.float_field sc i a 0 then Some a.(0) else None in
        let same =
          match (want, got) with
          | Some w, Some g -> Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float g)
          | None, None -> true
          | _ -> false
        in
        if not same then
          Alcotest.failf "%s: float_field read %S as %s, float_of_string_opt as %s" what s
            (show got) (show want))
      line
  done

(* Renders [xs] and reads back the three texts a float is likely to
   have: "%.15g", "%.16g" and "%.17g". *)
let check_both what xs =
  let texts = check_renders what xs in
  check_reads what
    (Array.concat
       [ texts; Array.map (Printf.sprintf "%.15g") xs; Array.map (Printf.sprintf "%.16g") xs ])

let with_neighbours xs =
  Array.of_list
    (List.concat_map (fun x -> [ Float.pred x; x; Float.succ x ]) (Array.to_list xs))

let signed xs = Array.append xs (Array.map Float.neg xs)

let test_random_bits () =
  let r = rng 1 in
  let xs = Array.init 1_000_000 (fun _ -> Int64.float_of_bits (Random.State.bits64 r)) in
  check_reads "random bits" (check_renders "random bits" xs)

(* Magnitudes 10^-5 .. 10^18: both sides of every edge of the integer
   paths, and the range of costs and start times the formats carry. *)
let test_schedule_range () =
  let r = rng 2 in
  let xs =
    Array.init 100_000 (fun i ->
        let e = (i mod 24) - 5 in
        Random.State.float r 1.0 *. (10.0 ** float_of_int e))
  in
  let costs = Array.init 20_000 (fun _ -> Random.State.float r 1e4) in
  let grid = Array.init 10_000 (fun i -> float_of_int i *. 0.25) in
  check_both "schedule range" (signed (Array.concat [ xs; costs; grid; [| 0.0 |] ]))

let test_powers () =
  let twos = Array.init (1023 + 1074 + 1) (fun i -> Float.ldexp 1.0 (i - 1074)) in
  let tens = Array.init (308 + 323 + 1) (fun i -> float_of_string (Printf.sprintf "1e%d" (i - 323))) in
  check_both "powers" (signed (with_neighbours (Array.append twos tens)))

let test_zeros () =
  Alcotest.(check string) "+0" "0" (render 0.0);
  Alcotest.(check string) "-0" "-0" (render (-0.0));
  check_reads "zeros" [| "0"; "-0"; "+0"; "0.0"; "-0.0"; "000.000"; "-.0"; "0." |]

(* [+-]? digits with an optional point anywhere and leading zeros: up
   to 20 digits, so both sides of the 18-significant-digit limit. *)
let test_digit_strings () =
  let r = rng 3 in
  let one () =
    let b = Buffer.create 24 in
    (match Random.State.int r 3 with
    | 0 -> Buffer.add_char b '-'
    | 1 -> Buffer.add_char b '+'
    | _ -> ());
    let len = 1 + Random.State.int r 20 in
    let point = Random.State.int r (len + 2) and zeros = Random.State.int r 5 in
    for i = 0 to len - 1 do
      if i = point then Buffer.add_char b '.';
      Buffer.add_char b (if i < zeros then '0' else Char.chr (48 + Random.State.int r 10))
    done;
    if point = len then Buffer.add_char b '.';
    Buffer.contents b
  in
  check_reads "digit strings" (Array.init 300_000 (fun _ -> one ()))

(* Integers exactly halfway between two doubles in [2^53, 2^60): the
   ties the exact comparison must break to even, then the same digits
   with a point inserted. *)
let test_halfway () =
  let r = rng 4 in
  let fields =
    Array.concat
      (List.init 50_000 (fun _ ->
           let shift = 1 + Random.State.int r 6 in
           let base = (1 lsl 53) lsl shift in
           let step = 1 lsl (shift + 1) in
           let c = base + Random.State.full_int r base in
           let h = (c / step * step) + (step / 2) in
           let s = string_of_int h in
           let n = String.length s in
           let p = Random.State.int r (n + 1) in
           [| s; String.sub s 0 p ^ "." ^ String.sub s p (n - p) |]))
  in
  check_reads "halfway" fields

(* Minor-heap words [f ()] allocates: the least of three tries, so that
   another thread's allocation cannot be counted. *)
let words f =
  let once () =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

let test_paths () =
  let fields =
    [
      ("1.25", false); ("-17", false); ("+0.0001", false); ("123456789012345678", false);
      ("0.0000123456789012345678", false); ("9007199254740993", false);
      ("1e5", true); ("2.5E-3", true); ("1_000.5", true); ("0x1p3", true); ("-0X10", true);
      ("inf", true); ("-infinity", true); ("nan", true); ("4.9e-324", true);
      ("1234567890123456789", true); ("0.00000000000000000000001", true);
    ]
  in
  check_reads "paths" (Array.of_list (List.map fst fields));
  let sc = Text_syntax.scanner (String.concat " " (List.map fst fields)) in
  ignore (Text_syntax.next_line sc);
  let a = [| 0.0 |] in
  List.iteri
    (fun i (s, fallback) ->
      let w = words (fun () -> ignore (Text_syntax.float_field sc i a 0)) in
      if fallback <> (w > 0.0) then
        Alcotest.failf "reading %S allocated %g words: expected %s" s w
          (if fallback then "the C library" else "the in-place path"))
    fields;
  let floats =
    [
      (0.0, false); (-0.0, false); (1e-4, false); (0.1, false); (-3.75, false);
      (99999999999999984.0, false); (9.99e-5, true); (1e17, true); (5e-324, true);
      (2.2250738585072014e-308, true); (1e300, true); (infinity, true); (nan, true);
    ]
  in
  ignore (check_renders "paths" (Array.of_list (List.map fst floats)));
  let buf = Buffer.create 1024 in
  List.iter
    (fun (x, fallback) ->
      let w = words (fun () -> Text_syntax.add_float buf x) in
      if fallback <> (w > 0.0) then
        Alcotest.failf "writing %h allocated %g words: expected %s" x w
          (if fallback then "the C library" else "the integer path"))
    floats

let suite =
  [
    Alcotest.test_case "1M random bit patterns" `Quick test_random_bits;
    Alcotest.test_case "schedule-range values" `Quick test_schedule_range;
    Alcotest.test_case "powers of two and ten, and neighbours" `Quick test_powers;
    Alcotest.test_case "signed zeros" `Quick test_zeros;
    Alcotest.test_case "random digit strings" `Quick test_digit_strings;
    Alcotest.test_case "halfway integers above 2^53" `Quick test_halfway;
    Alcotest.test_case "fallback inputs take the C library" `Quick test_paths;
  ]
