(** Consistent-hash ring over backend identifiers.

    Each member is planted on the ring at [vnodes] pseudo-random points
    (MD5 of ["<member>#<i>"]), and a key is served by the first distinct
    members encountered walking clockwise from the key's own hash. The
    classic consistency property follows: adding one member to an
    N-member ring moves only the keys that now land on the new member —
    about [1/(N+1)] of them — and removing it restores every previous
    assignment exactly. The router shards schedule requests on this
    ring keyed by {!Flb_service.Cache.text_digest} of the graph text —
    the digest the backend cache keys on — so a given request keeps
    hitting the same replica set (and its warm cache) as backends come
    and go.

    Rings are immutable; [add]/[remove] return new rings. Hashing is
    deterministic (MD5), so assignments agree across processes and
    runs. *)

type t

val create : ?vnodes:int -> string list -> t
(** Ring over the given member ids (duplicates ignored). [vnodes]
    (default 64) is the number of points per member; more points spread
    load more evenly at the cost of a larger ring.
    @raise Invalid_argument if [vnodes < 1]. *)

val add : t -> string -> t
(** Ring with one more member; no-op if already present. *)

val remove : t -> string -> t
(** Ring without the member; no-op if absent. *)

val members : t -> string list
(** Sorted member ids. *)

val size : t -> int

val lookup : t -> n:int -> string -> string list
(** The first [min n (size t)] distinct members clockwise from the
    key's hash — position 0 is the key's primary, the rest its
    replicas in deterministic failover order. [[]] on an empty ring. *)

val primary : t -> string -> string option
(** [lookup ~n:1] as an option. *)
