(** Removable binary min-heap keyed by {b float} priority.

    O(log n) insert and extract-min, O(log n) removal or re-keying of an
    arbitrary element through its handle, FIFO among equal priorities.
    Built for the stride scheduler, whose pass values are
    rationals of the flow weights and cannot be integer-keyed without
    losing the weight semantics. *)

type 'a t
(** A heap of values of type ['a] keyed by float priority. *)

type 'a handle
(** Identifies an inserted element; valid until the element is removed or
    extracted. *)

val create : unit -> 'a t
(** An empty heap. *)

val size : 'a t -> int
(** Number of live elements. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [size h = 0]. *)

val insert : 'a t -> prio:float -> 'a -> 'a handle
(** [insert h ~prio v] adds [v] with priority [prio] and returns its
    handle. *)

val extract_min : 'a t -> (float * 'a) option
(** Remove and return the smallest (priority, value); [None] if empty. *)

val remove : 'a t -> 'a handle -> bool
(** [remove h hd] deletes the element behind [hd]; returns [false] if it
    was already extracted or removed. *)

val update_prio : 'a t -> 'a handle -> prio:float -> bool
(** [update_prio h hd ~prio] re-keys the element in place (decrease- or
    increase-key) with a fresh sequence number, so among equal priorities
    it behaves exactly as if it had just been inserted.  Returns [false]
    if the element was already extracted or removed. *)

val mem : 'a t -> 'a handle -> bool
(** Whether the handle still designates a live element. *)

val min_handle : 'a t -> 'a handle
(** Handle of the smallest element without removing it; no allocation.
    Raises [Invalid_argument] on an empty heap. *)

val pop_min : 'a t -> 'a handle
(** Remove the smallest element and return its handle; no allocation.
    Raises [Invalid_argument] on an empty heap. *)

val handle_value : 'a handle -> 'a
(** Value behind the handle (also valid on extracted handles). *)

val shift_all : 'a t -> float -> unit
(** [shift_all h delta] adds [delta] to every live element's priority in
    O(n) without perturbing the extraction order (a uniform shift
    preserves every pairwise comparison).  The stride scheduler uses this
    to rebase pass values before they grow large enough for float
    addition to lose small strides. *)

val clear : 'a t -> unit
(** Remove all elements. *)
