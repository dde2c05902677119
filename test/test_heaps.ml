open Testutil
module Flat_heap = Flb_heap.Flat_heap

(* --- Indexed_heap --- *)

let test_indexed_basic () =
  let h = Indexed_heap.create ~universe:10 ~compare:Float.compare in
  Indexed_heap.add h ~elt:3 ~key:5.0;
  Indexed_heap.add h ~elt:7 ~key:1.0;
  Indexed_heap.add h ~elt:2 ~key:3.0;
  check_int "length" 3 (Indexed_heap.length h);
  check_bool "mem" true (Indexed_heap.mem h 7);
  check_bool "not mem" false (Indexed_heap.mem h 0);
  (match Indexed_heap.min_elt h with
  | Some (e, k) ->
    check_int "min elt" 7 e;
    check_float "min key" 1.0 k
  | None -> Alcotest.fail "min on non-empty");
  Indexed_heap.remove h 7;
  (match Indexed_heap.min_elt h with
  | Some (e, _) -> check_int "min after remove" 2 e
  | None -> Alcotest.fail "min after remove");
  Indexed_heap.update h ~elt:3 ~key:0.5;
  (match Indexed_heap.min_elt h with
  | Some (e, _) -> check_int "min after decrease" 3 e
  | None -> Alcotest.fail "min after decrease")

let test_indexed_errors () =
  let h = Indexed_heap.create ~universe:4 ~compare:Float.compare in
  Indexed_heap.add h ~elt:1 ~key:1.0;
  check_raises_invalid "duplicate add" (fun () -> Indexed_heap.add h ~elt:1 ~key:2.0);
  check_raises_invalid "out of universe" (fun () -> Indexed_heap.add h ~elt:4 ~key:1.0);
  (match Indexed_heap.key h 0 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "key of absent element");
  Indexed_heap.remove h 3 (* no-op, absent *);
  check_int "length unchanged" 1 (Indexed_heap.length h)

let test_indexed_tie_break_by_id () =
  let h = Indexed_heap.create ~universe:5 ~compare:Float.compare in
  Indexed_heap.add h ~elt:4 ~key:1.0;
  Indexed_heap.add h ~elt:1 ~key:1.0;
  Indexed_heap.add h ~elt:2 ~key:1.0;
  match Indexed_heap.min_elt h with
  | Some (e, _) -> check_int "lowest id wins ties" 1 e
  | None -> Alcotest.fail "min"

(* --- Flat_heap --- *)

let test_flat_basic () =
  let h = Flat_heap.create ~universe:10 in
  Flat_heap.add h ~elt:3 ~primary:5.0 ~secondary:0.0;
  Flat_heap.add h ~elt:7 ~primary:1.0 ~secondary:0.0;
  Flat_heap.add h ~elt:2 ~primary:3.0 ~secondary:0.0;
  check_int "length" 3 (Flat_heap.length h);
  check_bool "mem" true (Flat_heap.mem h 7);
  check_bool "not mem" false (Flat_heap.mem h 0);
  check_int "min elt" 7 (Flat_heap.peek h);
  check_float "min key" 1.0 (Flat_heap.primary h 7);
  Flat_heap.remove h 7;
  check_int "min after remove" 2 (Flat_heap.peek h);
  Flat_heap.update h ~elt:3 ~primary:0.5 ~secondary:0.0;
  check_int "min after decrease" 3 (Flat_heap.peek h);
  check_int "pop" 3 (Flat_heap.pop h);
  check_int "pop" 2 (Flat_heap.pop h);
  check_int "pop empty-signal" (-1) (Flat_heap.pop h);
  check_int "peek empty" (-1) (Flat_heap.peek h)

let test_flat_errors () =
  let h = Flat_heap.create ~universe:4 in
  Flat_heap.add h ~elt:1 ~primary:1.0 ~secondary:0.0;
  check_raises_invalid "duplicate add" (fun () ->
      Flat_heap.add h ~elt:1 ~primary:2.0 ~secondary:0.0);
  check_raises_invalid "out of universe" (fun () ->
      Flat_heap.add h ~elt:4 ~primary:1.0 ~secondary:0.0);
  (match Flat_heap.primary h 0 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "primary of absent element");
  Flat_heap.remove h 3 (* no-op, absent *);
  check_int "length unchanged" 1 (Flat_heap.length h)

let test_flat_secondary_and_id_ties () =
  let h = Flat_heap.create ~universe:6 in
  Flat_heap.add h ~elt:4 ~primary:1.0 ~secondary:2.0;
  Flat_heap.add h ~elt:1 ~primary:1.0 ~secondary:3.0;
  Flat_heap.add h ~elt:5 ~primary:1.0 ~secondary:2.0;
  (* secondary breaks the primary tie; element id breaks the rest *)
  check_int "secondary then id" 4 (Flat_heap.peek h);
  Flat_heap.remove h 4;
  check_int "next by id" 5 (Flat_heap.peek h);
  Flat_heap.remove h 5;
  check_int "largest secondary last" 1 (Flat_heap.peek h)

let test_flat_family_siblings () =
  let hs = Flat_heap.create_family ~universe:20 ~count:3 in
  Flat_heap.add hs.(0) ~elt:2 ~primary:1.0 ~secondary:0.0;
  check_raises_invalid "add of a sibling's element" (fun () ->
      Flat_heap.add hs.(1) ~elt:2 ~primary:0.0 ~secondary:0.0);
  check_raises_invalid "update of a sibling's element" (fun () ->
      Flat_heap.update hs.(1) ~elt:2 ~primary:0.0 ~secondary:0.0);
  check_bool "mem of a sibling's element" false (Flat_heap.mem hs.(1) 2);
  (match Flat_heap.primary hs.(1) 2 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "primary of a sibling's element");
  Flat_heap.remove hs.(1) 2 (* no-op, a sibling's element *);
  check_int "holder keeps it" 2 (Flat_heap.peek hs.(0));
  check_int "sibling stays empty" 0 (Flat_heap.length hs.(1));
  Flat_heap.remove hs.(0) 2;
  Flat_heap.add hs.(1) ~elt:2 ~primary:1.0 ~secondary:0.0;
  check_bool "released element moves" true (Flat_heap.mem hs.(1) 2);
  (* One heap can grow to take every other element of the universe. *)
  for e = 19 downto 0 do
    if e <> 2 then Flat_heap.add hs.(2) ~elt:e ~primary:(float_of_int (e mod 5)) ~secondary:0.0
  done;
  check_int "grown heap holds the rest" 19 (Flat_heap.length hs.(2));
  let drained = List.init 19 (fun _ -> Flat_heap.pop hs.(2)) in
  Alcotest.(check (list int))
    "grown heap drains in key order"
    [ 0; 5; 10; 15; 1; 6; 11; 16; 7; 12; 17; 3; 8; 13; 18; 4; 9; 14; 19 ]
    drained

(* A flat heap reads exactly as an indexed heap over (float, float) keys. *)
let flat_agrees flat indexed =
  Flat_heap.length flat = Indexed_heap.length indexed
  && (match Indexed_heap.min_elt indexed with
     | None -> Flat_heap.peek flat = -1
     | Some (e, (p, s)) ->
       Flat_heap.peek flat = e
       && Flat_heap.primary flat e = p
       && Flat_heap.secondary flat e = s)
  && Flat_heap.to_sorted_list flat = Indexed_heap.to_sorted_list indexed

let pair_indexed_heap universe =
  Indexed_heap.create ~universe ~compare:(Stdlib.compare : float * float -> _ -> _)

(* Random operation sequences checked against a simple association-map
   model; this is the FLB workhorse so it gets the heaviest property. *)
let qsuite =
  let arb_ops =
    QCheck.(
      pair (int_range 1 60)
        (list (pair (int_range 0 2) (pair (int_range 0 300) (float_range 0.0 100.0)))))
  in
  [
    qtest ~count:300 "indexed heap agrees with map model" arb_ops
      (fun (universe, ops) ->
        let h = Indexed_heap.create ~universe ~compare:Float.compare in
        let model = Hashtbl.create 16 in
        List.iter
          (fun (op, (raw, key)) ->
            let e = raw mod universe in
            match op with
            | 0 ->
              if not (Indexed_heap.mem h e) then begin
                Indexed_heap.add h ~elt:e ~key;
                Hashtbl.replace model e key
              end
            | 1 ->
              Indexed_heap.update h ~elt:e ~key;
              Hashtbl.replace model e key
            | _ ->
              Indexed_heap.remove h e;
              Hashtbl.remove model e)
          ops;
        let model_min =
          Hashtbl.fold
            (fun e k best ->
              match best with
              | Some (be, bk) when (bk, be) <= (k, e) -> best
              | _ -> Some (e, k))
            model None
        in
        Indexed_heap.length h = Hashtbl.length model
        && Indexed_heap.min_elt h = model_min
        &&
        let sorted = Indexed_heap.to_sorted_list h in
        List.length sorted = Hashtbl.length model
        && List.for_all (fun (e, k) -> Hashtbl.find_opt model e = Some k) sorted
        && sorted = List.sort (fun (e1, k1) (e2, k2) -> compare (k1, e1) (k2, e2)) sorted);
    qtest ~count:300 "flat heap agrees with indexed heap on (float, float) keys"
      QCheck.(
        pair (int_range 1 60)
          (list
             (pair (int_range 0 2)
                (pair (int_range 0 300)
                   (pair (float_range 0.0 100.0) (float_range 0.0 10.0))))))
      (fun (universe, ops) ->
        let flat = Flat_heap.create ~universe in
        let indexed = pair_indexed_heap universe in
        List.iter
          (fun (op, (raw, (p, s))) ->
            let e = raw mod universe in
            match op with
            | 0 ->
              if not (Flat_heap.mem flat e) then begin
                Flat_heap.add flat ~elt:e ~primary:p ~secondary:s;
                Indexed_heap.add indexed ~elt:e ~key:(p, s)
              end
            | 1 ->
              Flat_heap.update flat ~elt:e ~primary:p ~secondary:s;
              Indexed_heap.update indexed ~elt:e ~key:(p, s)
            | _ ->
              Flat_heap.remove flat e;
              Indexed_heap.remove indexed e)
          ops;
        flat_agrees flat indexed);
    (* K heaps of one family, each against its own indexed heap. An
       element is in at most one heap: inserting one a sibling holds must
       raise and change nothing, and removing it through another heap is
       a no-op on both sides. *)
    qtest ~count:300 "flat heap family agrees per heap"
      QCheck.(
        triple (int_range 1 60) (int_range 1 6)
          (list
             (pair
                (pair (int_range 0 2) (int_range 0 5))
                (pair (int_range 0 300)
                   (pair (float_range 0.0 100.0) (float_range 0.0 10.0))))))
      (fun (universe, count, ops) ->
        let flat = Flat_heap.create_family ~universe ~count in
        let indexed = Array.init count (fun _ -> pair_indexed_heap universe) in
        let holder e =
          let rec find k =
            if k = count then -1 else if Indexed_heap.mem indexed.(k) e then k else find (k + 1)
          in
          find 0
        in
        let refused = ref true in
        List.iter
          (fun ((op, raw_k), (raw, (p, s))) ->
            let k = raw_k mod count and e = raw mod universe in
            let h = holder e in
            if op < 2 && h >= 0 && h <> k then begin
              let insert = if op = 0 then Flat_heap.add else Flat_heap.update in
              match insert flat.(k) ~elt:e ~primary:p ~secondary:s with
              | exception Invalid_argument _ -> ()
              | () -> refused := false
            end
            else
              match op with
              | 0 ->
                if h < 0 then begin
                  Flat_heap.add flat.(k) ~elt:e ~primary:p ~secondary:s;
                  Indexed_heap.add indexed.(k) ~elt:e ~key:(p, s)
                end
              | 1 ->
                Flat_heap.update flat.(k) ~elt:e ~primary:p ~secondary:s;
                Indexed_heap.update indexed.(k) ~elt:e ~key:(p, s)
              | _ ->
                Flat_heap.remove flat.(k) e;
                Indexed_heap.remove indexed.(k) e)
          ops;
        !refused
        && Array.for_all2 flat_agrees flat indexed
        && List.for_all
             (fun e ->
               Array.for_all2
                 (fun f i -> Flat_heap.mem f e = Indexed_heap.mem i e)
                 flat indexed)
             (List.init universe Fun.id));
    qtest "flat heap drains in key order" QCheck.(list (float_range 0.0 50.0))
      (fun keys ->
        let keys = Array.of_list keys in
        let n = Array.length keys in
        n = 0
        ||
        let h = Flat_heap.create ~universe:n in
        Array.iteri (fun e k -> Flat_heap.add h ~elt:e ~primary:k ~secondary:0.0) keys;
        let drained = ref [] in
        let rec drain () =
          match Flat_heap.pop h with
          | -1 -> ()
          | e ->
            drained := (keys.(e), e) :: !drained;
            drain ()
        in
        drain ();
        let drained = List.rev !drained in
        drained
        = List.sort
            (fun (k1, e1) (k2, e2) ->
              let c = Float.compare k1 k2 in
              if c <> 0 then c else Int.compare e1 e2)
            drained);
  ]

let suite =
  [
    Alcotest.test_case "indexed: basic" `Quick test_indexed_basic;
    Alcotest.test_case "indexed: errors" `Quick test_indexed_errors;
    Alcotest.test_case "indexed: id tie-break" `Quick test_indexed_tie_break_by_id;
    Alcotest.test_case "flat: basic" `Quick test_flat_basic;
    Alcotest.test_case "flat: errors" `Quick test_flat_errors;
    Alcotest.test_case "flat: secondary/id ties" `Quick test_flat_secondary_and_id_ties;
    Alcotest.test_case "flat family: siblings" `Quick test_flat_family_siblings;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
