module Bitset = Flb_prelude.Bitset

let max_level_width g =
  Array.fold_left
    (fun acc level -> max acc (List.length level))
    0 (Topo.level_members g)

(* Dilworth: max antichain = min chain partition = V - max matching on the
   bipartite "comparability" graph of the transitive closure. Matching by
   Kuhn's augmenting-path algorithm over bitset adjacency. *)
let exact g =
  let n = Taskgraph.num_tasks g in
  if n = 0 then 0
  else begin
    let closure = Topo.reachable g in
    let match_right = Array.make n (-1) in
    let match_left = Array.make n (-1) in
    let visited = Array.make n (-1) in
    (* [try_augment stamp u] searches for an augmenting path from left
       vertex [u]; [visited] is stamped per phase to avoid clearing. *)
    let rec try_augment stamp u =
      let found = ref false in
      Bitset.iter
        (fun v ->
          if (not !found) && visited.(v) <> stamp then begin
            visited.(v) <- stamp;
            if match_right.(v) = -1 || try_augment stamp match_right.(v) then begin
              match_right.(v) <- u;
              match_left.(u) <- v;
              found := true
            end
          end)
        closure.(u);
      !found
    in
    let matching = ref 0 in
    for u = 0 to n - 1 do
      if try_augment u u then incr matching
    done;
    n - !matching
  end

let max_ready_bound g =
  let n = Taskgraph.num_tasks g in
  if n = 0 then 0
  else begin
    (* Unbounded processors, zero communication: task [t] is enabled at the
       max finish time of its predecessors and runs immediately. Tasks whose
       [enable, finish) intervals overlap are pairwise unconnected, so the
       peak overlap is a valid antichain size. Zero-cost tasks get a point
       interval which still counts at its instant. *)
    let enable = Array.make n 0.0 in
    let finish = Array.make n 0.0 in
    Array.iter
      (fun t ->
        finish.(t) <- enable.(t) +. Taskgraph.comp g t;
        Taskgraph.iter_succs g t (fun s _ ->
            if finish.(t) > enable.(s) then enable.(s) <- finish.(t)))
      (Topo.order g);
    (* Sweep over half-open intervals: at equal times, finishes (kind 0)
       are processed before enables (kind 1) so back-to-back tasks do not
       overlap. Zero-cost tasks degenerate to empty intervals and are not
       counted. *)
    let events =
      Array.concat
        [
          Array.init n (fun t -> (finish.(t), 0));
          Array.init n (fun t -> (enable.(t), 1));
        ]
    in
    Array.sort compare events;
    let current = ref 0 and peak = ref 0 in
    Array.iter
      (fun (_, kind) ->
        if kind = 1 then begin
          incr current;
          if !current > !peak then peak := !current
        end
        else decr current)
      events;
    !peak
  end
