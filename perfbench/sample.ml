(* Raw per-operation samples. Every percentile the benchmark reports is
   computed here from the raw values (linear interpolation between the
   two closest ranks, as numpy's default), never from a bucketed
   histogram: Flb_obs.Metrics histograms use 2^(1/4) log buckets, whose
   up to ±9% error is as large as a regression bound. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 256 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let to_array t = Array.sub t.data 0 t.len

let merge ts =
  let all = create () in
  List.iter (fun t -> for i = 0 to t.len - 1 do add all t.data.(i) done) ts;
  all

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

(* 0 for an empty sample: a workload that never exercises a layer
   reports that layer as 0. *)
let quantile t q =
  let a = to_array t in
  Array.sort Float.compare a;
  quantile_sorted a q

let median t = quantile t 0.5

(* Quantile of values carrying integer weights (one value standing for
   [w] identical samples, e.g. one request's round trip for each of its
   tasks), without materializing the copies. *)
let weighted_quantile pairs q =
  let a = Array.of_list pairs in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) a;
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 a in
  if total = 0 then 0.0
  else begin
    (* Rank in the expanded sample, interpolated like [quantile]. *)
    let pos = q *. float_of_int (total - 1) in
    let lo = truncate pos in
    let frac = pos -. float_of_int lo in
    let value_at rank =
      let rec go i seen =
        let v, w = a.(i) in
        if rank < seen + w || i = Array.length a - 1 then v else go (i + 1) (seen + w)
      in
      go 0 0
    in
    let vlo = value_at lo in
    let vhi = value_at (min (total - 1) (lo + 1)) in
    vlo +. (frac *. (vhi -. vlo))
  end

(* Items cut by completion time into [n] equal slices of the window
   [start, start + len); items completing after the window are left out
   of every slice. Run figures are medians over slices, so a burst of
   host noise spoils a few slices instead of the whole run. *)
let slices ~start ~len ~n ~at items =
  let buckets = Array.make n [] in
  List.iter
    (fun x ->
      let k = truncate ((at x -. start) /. len *. float_of_int n) in
      if k >= 0 && k < n then buckets.(k) <- x :: buckets.(k))
    items;
  buckets

let of_list xs =
  let s = create () in
  List.iter (add s) xs;
  s

(* [values] cut into slices, like [slices], by the parallel sample of
   completion times [at]. *)
let slice_timed ~start ~len ~n ~at values =
  let buckets = Array.init n (fun _ -> create ()) in
  for i = 0 to values.len - 1 do
    let k = truncate ((at.data.(i) -. start) /. len *. float_of_int n) in
    if k >= 0 && k < n then add buckets.(k) values.data.(i)
  done;
  buckets
