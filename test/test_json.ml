(* Flb_prelude.Json: the one codec every document goes through. The
   writer's output must read back exactly (bit-identical floats), and the
   reader must refuse what RFC 8259 does not allow. *)

open Testutil
module Json = Flb_prelude.Json

(* Equality that tells floats apart by their bits, so -0.0 <> 0.0. *)
let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
  | _ -> a = b

let check_writes what expected v = Alcotest.(check string) what expected (Json.to_string v)

let test_writer () =
  check_writes "integral floats print as integers" "[8,-3,0,-0,123456789012345]"
    (Json.Arr
       [ Json.int 8; Json.Num (-3.0); Json.Num 0.0; Json.Num (-0.0); Json.Num 123456789012345.0 ]);
  check_writes "fewest digits that read back" "[0.1,2.5,1e+300,0.30000000000000004]"
    (Json.Arr [ Json.Num 0.1; Json.Num 2.5; Json.Num 1e300; Json.Num (0.1 +. 0.2) ]);
  check_writes "non-finite is null" "[null,null,null]"
    (Json.Arr [ Json.Num Float.nan; Json.Num Float.infinity; Json.Num Float.neg_infinity ]);
  check_writes "escapes" "\"q\\\" b\\\\ n\\n t\\t c\\u0001\\u001f del\x7f\""
    (Json.Str "q\" b\\ n\n t\t c\x01\x1f del\x7f");
  check_writes "UTF-8 passes, invalid bytes are replaced" "\"é€😀 \\ufffd \\ufffd\""
    (Json.Str "é€😀 \xff \xc3");
  check_writes "compact, fields in order" "{\"b\":[true,false,null],\"a\":{}}"
    (Json.Obj [ ("b", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]); ("a", Json.Obj []) ])

let test_reader () =
  let reads what expected text =
    match Json.of_string text with
    | Ok v -> check_bool what true (same v expected)
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  reads "whitespace around tokens" (Json.Obj [ ("a", Json.Arr [ Json.int 1; Json.Num (-0.5) ]) ])
    " \t\r\n{ \"a\" : [ 1 , -0.5 ] } \n";
  reads "exponents" (Json.Arr [ Json.Num 2e10; Json.Num 1.5e-7; Json.Num 300.0 ]) "[2e10,1.5E-7,3e+2]";
  reads "escapes decode to UTF-8" (Json.Str "/\b\012\n\r\t\"\\ é 😀")
    "\"\\/\\b\\f\\n\\r\\t\\\"\\\\ \\u00e9 \\ud83d\\ude00\"";
  reads "raw UTF-8" (Json.Str "é") "\"é\"";
  List.iter
    (fun (what, text) ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s: %S" what text)
    [
      ("an empty text", "");
      ("NaN", "NaN");
      ("Infinity", "[-Infinity]");
      ("a leading zero", "01");
      ("a bare point", "1.");
      ("a leading point", ".5");
      ("a plus sign", "+1");
      ("an empty exponent", "1e");
      ("a trailing comma in an array", "[1,]");
      ("a trailing comma in an object", "{\"a\":1,}");
      ("a missing comma", "[1 2]");
      ("a missing colon", "{\"a\" 1}");
      ("single quotes", "{'a':1}");
      ("a raw control character", "\"a\x01b\"");
      ("a raw newline", "\"a\nb\"");
      ("an unknown escape", "\"\\x41\"");
      ("a lone high surrogate", "\"\\ud83d\"");
      ("a lone low surrogate", "\"\\ude00\"");
      ("a short \\u escape", "\"\\u00e\"");
      ("an unterminated string", "\"abc");
      ("a cut literal", "tru");
      ("trailing content", "[1] 2");
      ("two documents", "{}{}");
    ]

(* Strings built from pieces that need every kind of treatment: plain
   ASCII, the escaped characters, other control bytes, DEL and
   multi-byte UTF-8. *)
let gen_string =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 6)
         (oneofl
            [ "a"; "key"; " "; "\""; "\\"; "/"; "\n"; "\t"; "\r"; "\b"; "\x00"; "\x1f"; "\x7f"; "é"; "€"; "😀" ])))

let gen_float =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.0) float;
        map float_of_int int;
        oneofl [ 0.0; -0.0; 0.1; 1e-300; 5e-324; Float.max_float; -.Float.min_float; 1e15; 123456.789 ];
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) gen_float;
                 map (fun s -> Json.Str s) gen_string;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair gen_string (self (n / 4)))) );
               ]))

let qsuite =
  [
    qtest ~count:1000 "of_string (to_string v) = Ok v, floats bit-identical"
      (QCheck.make ~print:Json.to_string gen_json)
      (fun v ->
        let back = Json.of_string (Json.to_string v) in
        back = Ok v && match back with Ok w -> same v w | Error _ -> false);
  ]

let suite =
  [
    Alcotest.test_case "writer" `Quick test_writer;
    Alcotest.test_case "strict reader" `Quick test_reader;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
