(* Every heap of a family shares the element-indexed arrays; only the
   element array and its size are the heap's own. An element belongs to
   at most one heap of its family, the one whose [id] is in [owner]. *)
type t = {
  mutable heap : int array; (* live prefix [0, size) holds element ids *)
  mutable size : int;
  id : int; (* this heap's index in its family *)
  owner : int array; (* element id -> id of the heap holding it, or -1 *)
  pos : int array; (* element id -> heap index (valid while present) *)
  k1 : float array; (* element id -> primary key (valid while present) *)
  k2 : float array; (* element id -> secondary key *)
}

let family ~universe ~count ~capacity =
  if universe < 0 then invalid_arg "Flat_heap: negative universe";
  let owner = Array.make universe (-1) in
  let pos = Array.make universe 0 in
  let k1 = Array.make universe 0.0 and k2 = Array.make universe 0.0 in
  Array.init count (fun id ->
      { heap = Array.make capacity 0; size = 0; id; owner; pos; k1; k2 })

let create ~universe = (family ~universe ~count:1 ~capacity:universe).(0)

let create_family ~universe ~count = family ~universe ~count ~capacity:(min universe 8)

let length h = h.size

let is_empty h = h.size = 0

let in_range h e = e >= 0 && e < Array.length h.owner

let mem h e = in_range h e && h.owner.(e) = h.id

let primary h e =
  if not (mem h e) then raise Not_found;
  h.k1.(e)

let secondary h e =
  if not (mem h e) then raise Not_found;
  h.k2.(e)

(* Lexicographic (primary, secondary, id) order, fully monomorphic: every
   comparison below is a float or int primitive, none allocates and none
   falls back to the polymorphic compare runtime. *)
let[@inline] less h a b =
  let ka = h.k1.(a) and kb = h.k1.(b) in
  if ka < kb then true
  else if ka > kb then false
  else begin
    let sa = h.k2.(a) and sb = h.k2.(b) in
    if sa < sb then true else if sa > sb then false else a < b
  end

let[@inline] place h i e =
  h.heap.(i) <- e;
  h.pos.(e) <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let e = h.heap.(i) and pe = h.heap.(parent) in
    if less h e pe then begin
      place h i pe;
      place h parent e;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = h.size in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && less h h.heap.(l) h.heap.(!smallest) then smallest := l;
  if r < n && less h h.heap.(r) h.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let e = h.heap.(i) and se = h.heap.(!smallest) in
    place h i se;
    place h !smallest e;
    sift_down h !smallest
  end

(* A family's heaps hold distinct elements of one universe, so a heap with
   room to grow is never asked for more than [universe] slots. *)
let grow h =
  let heap = Array.make (min (Array.length h.owner) (max 8 (2 * h.size))) 0 in
  Array.blit h.heap 0 heap 0 h.size;
  h.heap <- heap

let add h ~elt ~primary ~secondary =
  if not (in_range h elt) then
    invalid_arg
      (Printf.sprintf "Flat_heap.add: element %d outside universe [0, %d)" elt
         (Array.length h.owner));
  let o = h.owner.(elt) in
  if o >= 0 then
    invalid_arg
      (if o = h.id then Printf.sprintf "Flat_heap.add: element %d already present" elt
       else Printf.sprintf "Flat_heap.add: element %d is in sibling heap %d" elt o);
  if h.size = Array.length h.heap then grow h;
  h.owner.(elt) <- h.id;
  h.k1.(elt) <- primary;
  h.k2.(elt) <- secondary;
  place h h.size elt;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let update h ~elt ~primary ~secondary =
  if mem h elt then begin
    h.k1.(elt) <- primary;
    h.k2.(elt) <- secondary;
    sift_up h h.pos.(elt);
    sift_down h h.pos.(elt)
  end
  else add h ~elt ~primary ~secondary

let remove_at h i =
  let e = h.heap.(i) in
  h.owner.(e) <- -1;
  h.size <- h.size - 1;
  if i <> h.size then begin
    let last = h.heap.(h.size) in
    place h i last;
    sift_up h i;
    sift_down h h.pos.(last)
  end

let remove h e = if mem h e then remove_at h h.pos.(e)

let peek h = if h.size = 0 then -1 else h.heap.(0)

let pop h =
  if h.size = 0 then -1
  else begin
    let e = h.heap.(0) in
    remove_at h 0;
    e
  end

let iter f h =
  for i = 0 to h.size - 1 do
    f h.heap.(i)
  done

let to_sorted_list h =
  let items = ref [] in
  iter (fun e -> items := (e, (h.k1.(e), h.k2.(e))) :: !items) h;
  List.sort
    (fun (e1, (p1, s1)) (e2, (p2, s2)) ->
      let c = Float.compare p1 p2 in
      if c <> 0 then c
      else
        let c = Float.compare s1 s2 in
        if c <> 0 then c else Int.compare e1 e2)
    !items
