(** FIFO queue with byte accounting.

    Backs router queues, links' in-flight packets, TCP connections'
    segments waiting for the host CPU and application packet buffers.
    Each element carries a size in bytes; the queue tracks the total so
    capacity checks are O(1).  Supports both tail insertion with head
    removal (FIFO) and drop-from-head (for the vat application buffer,
    paper §3.6).

    The queue is a ring buffer: an element array and a parallel [int]
    array of sizes, with a power-of-two capacity that doubles when full.
    A push allocates nothing once the ring has grown to the queue's
    working depth, and no element points to the next.  That matters on
    per-packet paths.  In a linked queue ([Stdlib.Queue]) each push
    writes the new cell into the previous cell's [next] field; once one
    cell has been promoted to the major heap, that write keeps the
    young successor reachable from the remembered set even after the
    promoted cell is popped and dead, so every minor collection promotes
    each cell pushed since — and each cell's packet — and the chain
    never ends.  Here a removed slot is overwritten with the [dummy]
    given at creation, so the (long-lived) array never keeps a removed
    element alive.  A per-packet consumer that knows the queue is
    non-empty (one event per pushed element) pops with {!take}, which
    builds no option. *)

type 'a t
(** A queue of ['a] elements with sizes. *)

val create : dummy:'a -> unit -> 'a t
(** Empty queue; allocates no storage until the first push.  [dummy]
    fills every slot that holds no element; it is never returned. *)

val push : 'a t -> size:int -> 'a -> unit
(** Append at the tail. *)

val pop : 'a t -> 'a option
(** Remove the head element; [None] if empty. *)

val take : 'a t -> 'a
(** Remove and return the head element of a queue the caller knows is
    non-empty, with no option box: the per-packet form of {!pop}.
    Raises [Invalid_argument] on an empty queue. *)

val take_last : 'a t -> 'a
(** Remove and return the tail element (the one pushed last) of a queue
    the caller knows is non-empty.  Raises [Invalid_argument] on an empty
    queue. *)

val peek : 'a t -> 'a option
(** Head element without removing it. *)

val drop_head : 'a t -> ('a * int) option
(** Remove and return the head element and its size (used when
    implementing drop-from-head policies). *)

val length : 'a t -> int
(** Number of elements. *)

val bytes : 'a t -> int
(** Sum of element sizes. *)

val is_empty : 'a t -> bool
(** Whether the queue holds no elements. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate head to tail. *)

val clear : 'a t -> unit
(** Remove all elements. *)
