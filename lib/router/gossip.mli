(** Gossiped router-replica state: per-backend status epochs and the
    split-shard set.

    Replicated routers stay consistent without a coordinator by
    periodically exchanging {!Flb_service.Wire.gossip_digest}s: each
    side merges the other's digest last-writer-wins by epoch. Epochs
    are per-key logical clocks bumped only on {e locally observed}
    changes ({!observe}, {!observe_splits}), so first-hand knowledge
    outvotes stale hearsay, merged epochs never move backwards, and N
    replicas with disjoint observations converge to an identical
    (status, epoch, split-set) map after at most N-1 symmetric
    exchange rounds along a line of peers (tie-breaks are symmetric:
    the worse status, resp. the greater split set, wins an epoch tie).

    All operations are thread-safe; the gossip thread, the health
    thread and request handlers share one [t]. *)

type t

val create : backends:string list -> t
(** Every backend starts [Peer_up] at epoch 0. *)

val digest : t -> Flb_service.Wire.gossip_digest
(** Snapshot to send to a peer; entries sorted by backend id. *)

val observe : t -> backend:string -> Flb_service.Wire.peer_status -> bool
(** Record a first-hand status observation. A change bumps the
    backend's epoch by one (outvoting everything merged so far) and
    returns [true]; re-observing the current belief is free. *)

val observe_splits : t -> string list -> unit
(** Record this router's locally computed split set. Only a {e change}
    relative to the previous local computation bumps the split epoch —
    re-announcing an unchanged view never outvotes a fresher peer. *)

val merge : t -> Flb_service.Wire.gossip_digest -> (string * Flb_service.Wire.peer_status) list
(** Merge one incoming digest, last-writer-wins by epoch. Returns the
    backends whose believed status changed, so the caller can apply
    them to its live backend table. *)

val status_of : t -> string -> Flb_service.Wire.peer_status option

val epoch_of : t -> string -> int option

val splits : t -> string list
(** The current fleet-wide split-shard set (sorted). *)

val merges : t -> int
(** Entries changed by remote digests since start. *)

val exchanges : t -> int
(** Digests merged since start (one per exchange side). *)

val json : t -> Flb_prelude.Json.t
(** One JSON object — backends with status/epoch, splits, counters —
    embedded in the router's stats snapshot so operators (and CI) can
    assert two replicas agree. *)
