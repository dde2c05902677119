open! Flb_taskgraph

let computation_critical_path g =
  Array.fold_left Float.max 0.0 (Levels.blevel_comp_only g)

let work_bound g ~procs =
  if procs < 1 then invalid_arg "Lower_bounds.work_bound: no processors";
  Taskgraph.total_comp g /. float_of_int procs

(* Computation-only earliest start times (communication can always be
   zeroed, so these are valid for any placement). *)
let est_comp_only g =
  let n = Taskgraph.num_tasks g in
  let est = Array.make n 0.0 in
  Array.iter
    (fun t ->
      Taskgraph.iter_succs g t (fun s _ ->
          let v = est.(t) +. Taskgraph.comp g t in
          if v > est.(s) then est.(s) <- v))
    (Topo.order g);
  est

let fernandez_bound g ~procs =
  if procs < 1 then invalid_arg "Lower_bounds.fernandez_bound: no processors";
  let n = Taskgraph.num_tasks g in
  if n = 0 then 0.0
  else begin
    let p = float_of_int procs in
    let t0 = computation_critical_path g in
    let est = est_comp_only g in
    let blevel = Levels.blevel_comp_only g in
    (* latest completion time under makespan t0 *)
    let lct = Array.init n (fun t -> t0 -. blevel.(t) +. Taskgraph.comp g t) in
    (* Mandatory work of task [t] inside window [a, b]. *)
    let mandatory t a b =
      let c = Taskgraph.comp g t in
      let slack_before = Float.max 0.0 (a -. est.(t)) in
      let slack_after = Float.max 0.0 (lct.(t) -. b) in
      Float.max 0.0 (Float.min (Float.min c (b -. a)) (c -. slack_before -. slack_after))
    in
    (* Candidate window endpoints: the interval structure's breakpoints.
       All O(V^2) pairs are exact but cubic overall; past a size cutoff we
       sample a quadratic-in-samples subset — any subset still yields a
       valid (possibly weaker) lower bound. *)
    let endpoints =
      let all = Array.concat [ est; lct ] in
      Array.sort Float.compare all;
      let dedup = ref [] in
      Array.iter
        (fun x -> match !dedup with y :: _ when y = x -> () | _ -> dedup := x :: !dedup)
        all;
      let arr = Array.of_list (List.rev !dedup) in
      if Array.length arr <= 80 then arr
      else begin
        let k = 80 in
        Array.init k (fun i -> arr.(i * (Array.length arr - 1) / (k - 1)))
      end
    in
    let excess = ref 0.0 in
    Array.iter
      (fun a ->
        Array.iter
          (fun b ->
            if b > a then begin
              let q = ref 0.0 in
              for t = 0 to n - 1 do
                q := !q +. mandatory t a b
              done;
              let e = !q -. (p *. (b -. a)) in
              if e > !excess then excess := e
            end)
          endpoints)
        endpoints;
    t0 +. (!excess /. p)
  end

let best g ~procs =
  Float.max
    (computation_critical_path g)
    (Float.max (work_bound g ~procs) (fernandez_bound g ~procs))
