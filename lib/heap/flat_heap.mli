(** Indexed (addressable) binary min-heap with unboxed two-component
    float keys.

    The allocation-free sibling of the tests' reference heap
    ([test/indexed_heap.ml]): elements are integer
    identifiers from a fixed universe and keys are pairs
    [(primary, secondary)] ordered lexicographically — exactly the
    [(value, tie-break)] keys every scheduler in this repository uses —
    but the two components live in plain [float array]s indexed by
    element, so no operation allocates: no boxed tuple per push, no
    polymorphic [compare] per sift step, no [option] per peek.

    Heaps come in {e families}: {!create_family} makes [count] heaps
    over one universe that share the element-indexed arrays (heap
    position, both key components and the owning heap), so a family of
    P per-processor queues costs O(V + P) words rather than O(V·P). An
    element is in at most one heap of its family at a time: {!add}
    refuses an element a sibling holds, and {!mem}, {!primary},
    {!secondary} and {!remove} see only the heap's own elements. Each
    family heap's element array starts small and doubles as it grows.
    {!create} is the one-member family with its element array sized by
    the universe up front, so after it no operation allocates.

    Ordering matches the reference heap over [(float * float)] keys with
    [Stdlib.compare]: primary, then secondary, then element id (keys are
    required to be non-NaN; graph weights are validated finite at
    construction). *)

type t

val create : universe:int -> t
(** [create ~universe] supports elements [0 .. universe-1]. Allocates
    five arrays of length [universe]; nothing afterwards. *)

val create_family : universe:int -> count:int -> t array
(** [create_family ~universe ~count] is [count] heaps over elements
    [0 .. universe-1], sharing four arrays of length [universe]. A heap
    reallocates its element array only when it outgrows it, doubling it
    up to [universe] slots. *)

val length : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool
(** [false] for an element a sibling heap holds. *)

val primary : t -> int -> float
(** Primary key component of a present element.
    @raise Not_found if the element is not in this heap. *)

val secondary : t -> int -> float
(** @raise Not_found if the element is not in this heap. *)

val add : t -> elt:int -> primary:float -> secondary:float -> unit
(** @raise Invalid_argument if [elt] is out of range or already in this
    heap or a sibling. *)

val update : t -> elt:int -> primary:float -> secondary:float -> unit
(** Re-keys a present element, or inserts an absent one.
    @raise Invalid_argument as {!add} when inserting. *)

val remove : t -> int -> unit
(** Removes the element if this heap holds it; no-op otherwise. *)

val peek : t -> int
(** Element with the smallest key, or [-1] when empty. O(1), never
    allocates. Its key components are [primary h (peek h)] and
    [secondary h (peek h)]. *)

val pop : t -> int
(** Removes and returns the minimum element, or [-1] when empty. *)

val iter : (int -> unit) -> t -> unit
(** Heap order, not sorted order. *)

val to_sorted_list : t -> (int * (float * float)) list
(** Non-destructive; ascending by key then element id. For tests and
    trace snapshots (allocates freely). *)
