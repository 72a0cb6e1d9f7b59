(** Hashed timing wheel with an exact total pop order.

    A mutable priority queue keyed by [(time, seq)] — [seq] is an internal
    counter making keys unique, so ties pop FIFO — that routes entries by
    temporal distance: near-future entries land in O(1) wheel slots, the
    current slot drains through a small binary heap, and far-future entries
    overflow into a heap and migrate forward as the wheel turns.  The pop
    sequence is exactly the sorted [(time, seq)] order, identical to a
    single binary heap over the same keys; [~slots:0] degenerates to that
    reference heap. *)

type 'a t
type 'a handle

val create : ?slots:int -> ?start:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty wheel whose slots are [2^14] time units
    wide (16.384 us at nanosecond resolution).  [slots] is the number of
    wheel slots, a power of two (default 1024, i.e. a ~16.8 ms horizon),
    or [0] for pure-heap mode; [start] is the
    earliest time the wheel must order exactly (the engine's clock
    origin); [dummy] is any value of the payload type, stored in the
    filler for empty internal cells and never handed back.  A cell a pop
    vacates keeps its stale entry instead (clearing it would cost a write
    barrier per pop), so an entry may stay reachable until its cell is
    reused; {!filter_in_place} does clear the cells it empties.  Raises
    [Invalid_argument] on a non-power-of-two [slots]. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val insert : 'a t -> time:int -> 'a -> 'a handle
(** O(1) within the horizon, O(log overflow) beyond it. *)

val reinsert : 'a t -> 'a handle -> time:int -> unit
(** Re-queue an extracted entry, reusing its block (no allocation).  Takes
    a fresh sequence number, so FIFO tie-breaking treats it as the newest
    arrival.  Raises [Invalid_argument] if the handle is still queued. *)

val reserve_seq : 'a t -> int
(** Take the next sequence number now, for a later {!rekey}.  Every
    {!insert}, {!reinsert} and {!update} takes one the same way. *)

val rekey : 'a t -> 'a handle -> time:int -> seq:int -> unit
(** [rekey w e ~time ~seq] queues [e] at exactly [(time, seq)]: moved if
    it is queued, re-queued if it was extracted or is {!detached}.  The
    entry then pops exactly where one queued with that seq at the moment
    it was reserved would pop.  [seq] must come from {!reserve_seq} and key
    at most one queued entry at a time. *)

val detached : 'a -> 'a handle
(** A fresh entry holding the value, in no queue: storage for {!rekey}. *)

val min_handle : 'a t -> 'a handle
(** Handle of the minimum-key entry, without removing it.  May advance the
    wheel cursor internally.  Raises [Invalid_argument] if empty. *)

val pop_min : 'a t -> 'a handle
(** Remove and return the minimum-key entry.
    Raises [Invalid_argument] if empty. *)

val remove : 'a t -> 'a handle -> bool
(** Remove an arbitrary entry: O(1) swap-remove from a wheel slot,
    O(log n) from a heap.  [false] if it was not queued. *)

val update : 'a t -> 'a handle -> time:int -> bool
(** Move a queued entry to a new time with a fresh sequence number
    (remove + reinsert semantics; in pure-heap mode the entry is re-keyed
    in place).
    [false] if the handle was not queued. *)

val mem : 'a t -> 'a handle -> bool
(** Whether the entry is queued (one load): [false] once popped,
    removed or filtered out, until it is queued again. *)

val handle_time : 'a handle -> int
val handle_value : 'a handle -> 'a

val handle_seq : 'a handle -> int
(** The entry's current sequence number — unique over the wheel's lifetime
    and refreshed by {!reinsert}/{!update}, so it doubles as a generation
    stamp for callers that hold handles across entry reuse. *)

val set_handle_value : 'a handle -> 'a -> unit
(** Overwrite the entry's payload in place (the key is untouched, so the
    entry keeps its queue position).  Lets a pooling caller store its own
    state directly in the entry block instead of through a second
    indirection. *)

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** Drop every entry whose value fails the predicate; dropped handles
    become not-queued.  O(n). *)

type stats = {
  overflow_inserts : int;  (** inserts routed beyond the wheel horizon *)
  overflow_migrations : int;  (** overflow entries later moved into the current-slot heap *)
  hw_size : int;  (** high-water of total queued entries *)
  hw_cur : int;  (** high-water of the current-slot heap (one slot's occupancy) *)
  size_now : int;  (** entries queued right now *)
}

val stats : 'a t -> stats
(** Lifetime occupancy counters (profiler/diagnostics).  In pure-heap
    mode ([~slots:0]) [overflow_inserts] stays 0: everything lives in the
    overflow heap by construction, so counting it would be noise. *)

val ntz : int -> int
(** Trailing zero bits of a non-zero 32-bit word, branch-free (a de
    Bruijn multiply and a 32-entry table).  Exposed for tests. *)
