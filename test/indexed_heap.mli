(** Indexed (addressable) binary min-heaps over integer elements: the
    reference the heap properties hold {!Flb_heap.Flat_heap} to.

    This is the data structure behind every "sorted list" in the FLB
    paper: each element is an integer identifier drawn from a fixed
    universe (a task id or a processor id), and the heap supports, in
    O(log n):

    - inserting an element with a key,
    - removing an arbitrary element by identifier (the paper's
      [RemoveItem]),
    - re-keying an element in place (the paper's [BalanceList]),

    plus O(1) access to the minimum (the paper's [Head]). A position
    table indexed by element identifier makes interior addressing O(1).

    The paper describes its lists as "decreasingly sorted by priority";
    equivalently, the head holds the minimum key, which is what this
    min-heap exposes. *)

type 'k t

val create : universe:int -> compare:('k -> 'k -> int) -> 'k t
(** [create ~universe ~compare] supports elements [0 .. universe-1].
    [compare] orders keys; ties are broken by element id (ascending) so
    iteration order is deterministic. *)

val length : 'k t -> int

val is_empty : 'k t -> bool

val mem : 'k t -> int -> bool

val key : 'k t -> int -> 'k
(** @raise Not_found if the element is not in the heap. *)

val add : 'k t -> elt:int -> key:'k -> unit
(** @raise Invalid_argument if [elt] is already present or out of range. *)

val update : 'k t -> elt:int -> key:'k -> unit
(** Re-keys a present element, or inserts an absent one. *)

val remove : 'k t -> int -> unit
(** Removes the element if present; no-op otherwise. *)

val min_elt : 'k t -> (int * 'k) option
(** The head of the list: element with the smallest key. *)

val pop : 'k t -> (int * 'k) option

val iter : (int -> 'k -> unit) -> 'k t -> unit
(** Heap order, not sorted order. *)

val to_sorted_list : 'k t -> (int * 'k) list
(** Non-destructive; ascending by key. For tests and trace printing. *)
