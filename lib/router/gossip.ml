(* Anti-entropy state a router replica shares with its peers: every
   backend's (status, epoch) pair plus the split-shard set under its own
   epoch. Epochs are per-key logical clocks bumped only on locally
   observed changes; merges are last-writer-wins by epoch with a
   deterministic tie-break, so any two replicas that have seen the same
   digests hold byte-identical state, and epochs never move backwards. *)

module Json = Flb_prelude.Json
module Wire = Flb_service.Wire

type t = {
  lock : Mutex.t;
  entries : (string, Wire.peer_status * int) Hashtbl.t;
  mutable splits : string list; (* sorted *)
  mutable splits_epoch : int;
  (* The last split set this router computed locally. Only a change in
     the LOCAL computation bumps the epoch — re-announcing an unchanged
     local view must not outvote a fresher peer decision, or two idle
     routers would forever overwrite a busy one's splits. *)
  mutable last_local_splits : string list;
  mutable merges : int; (* entries changed by remote digests *)
  mutable exchanges : int; (* digests merged (one per exchange side) *)
}

let create ~backends =
  let entries = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace entries b (Wire.Peer_up, 0)) backends;
  {
    lock = Mutex.create ();
    entries;
    splits = [];
    splits_epoch = 0;
    last_local_splits = [];
    merges = 0;
    exchanges = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let severity = function
  | Wire.Peer_up -> 0
  | Wire.Peer_draining -> 1
  | Wire.Peer_down -> 2

let digest t =
  with_lock t (fun () ->
      let entries =
        Hashtbl.fold
          (fun backend (status, epoch) acc ->
            { Wire.backend; status; epoch } :: acc)
          t.entries []
      in
      {
        Wire.entries =
          List.sort
            (fun a b -> String.compare a.Wire.backend b.Wire.backend)
            entries;
        splits = t.splits;
        splits_epoch = t.splits_epoch;
      })

let status_of t backend =
  with_lock t (fun () -> Option.map fst (Hashtbl.find_opt t.entries backend))

let epoch_of t backend =
  with_lock t (fun () -> Option.map snd (Hashtbl.find_opt t.entries backend))

let splits t = with_lock t (fun () -> t.splits)

let merges t = with_lock t (fun () -> t.merges)

let exchanges t = with_lock t (fun () -> t.exchanges)

(* A local observation: record [status] if it differs from the current
   belief, bumping the backend's epoch past everything seen so far, so
   first-hand knowledge outvotes any stale gossip. Returns [true] when
   the belief changed. *)
let observe t ~backend status =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries backend with
      | Some (cur, _) when cur = status -> false
      | Some (_, epoch) ->
        Hashtbl.replace t.entries backend (status, epoch + 1);
        true
      | None ->
        Hashtbl.replace t.entries backend (status, 1);
        true)

let observe_splits t local =
  let local = List.sort_uniq String.compare local in
  with_lock t (fun () ->
      if local <> t.last_local_splits then begin
        t.last_local_splits <- local;
        t.splits_epoch <- t.splits_epoch + 1;
        t.splits <- local
      end)

(* Last-writer-wins merge of one incoming digest. Higher epoch wins; on
   an epoch tie the worse status (resp. the lexicographically greater
   split set) wins, which is symmetric, so both sides of an exchange
   settle on the same value. Returns the backends whose believed status
   changed, for the router to apply to its live [Backend.t]s. *)
let merge t (d : Wire.gossip_digest) =
  with_lock t (fun () ->
      t.exchanges <- t.exchanges + 1;
      let changed = ref [] in
      List.iter
        (fun { Wire.backend; status; epoch } ->
          let take cur_status =
            Hashtbl.replace t.entries backend (status, epoch);
            t.merges <- t.merges + 1;
            if cur_status <> Some status then
              changed := (backend, status) :: !changed
          in
          match Hashtbl.find_opt t.entries backend with
          | None -> take None
          | Some (cur, cur_epoch) ->
            if
              epoch > cur_epoch
              || (epoch = cur_epoch && severity status > severity cur)
            then take (Some cur))
        d.Wire.entries;
      if
        d.Wire.splits_epoch > t.splits_epoch
        || (d.Wire.splits_epoch = t.splits_epoch
            && compare d.Wire.splits t.splits > 0)
      then begin
        t.splits <- d.Wire.splits;
        t.splits_epoch <- d.Wire.splits_epoch;
        t.merges <- t.merges + 1
      end;
      List.rev !changed)

let json t =
  with_lock t (fun () ->
      let status = function
        | Wire.Peer_up -> "up"
        | Wire.Peer_draining -> "draining"
        | Wire.Peer_down -> "down"
      in
      let backends =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.entries [])
      in
      Json.Obj
        [
          ( "backends",
            Json.Obj
              (List.map
                 (fun (backend, (s, epoch)) ->
                   (backend, Json.Obj [ ("status", Json.Str (status s)); ("epoch", Json.int epoch) ]))
                 backends) );
          ("splits", Json.Arr (List.map (fun s -> Json.Str s) t.splits));
          ("splits_epoch", Json.int t.splits_epoch);
          ("exchanges", Json.int t.exchanges);
          ("merges", Json.int t.merges);
        ])
