(** Macroflow schedulers.

    The congestion controller decides how much the macroflow may send; the
    scheduler decides {e which flow} gets each transmission grant.  The
    paper's implementation uses an unweighted round-robin scheduler; a
    weighted (stride) scheduler is provided for the ablation bench.

    Each [enqueue t fid] is one outstanding request for a grant of up to
    one MTU; a flow may hold several requests at once. *)

type t
(** A scheduler instance, private to one macroflow: a closed variant
    over the two schedulers' plain state records, so every operation
    below is one direct [match]. *)

type factory = unit -> t
(** Builds a fresh scheduler. *)

val round_robin : factory
(** The paper's default: cycle over flows that have pending requests,
    one grant per turn, FIFO among a flow's own requests.  Every
    operation is O(1) (an active-set ring plus a pending-count array). *)

val weighted : factory
(** Stride scheduling: flows receive grants in proportion to their
    weights (default weight 1.0).  Backlogged flows sit in a pure-heap
    {!Eventsim.Engine.Queue} ([~slots:0]) keyed by their pass, so [dequeue] is
    O(log n) in the number of {e backlogged} flows — independent of how
    many flows are registered — and equal passes grant in FIFO order.
    The key of a pass is its IEEE-754 bit pattern minus that of 1.0: on
    [[+0., max_float]] that is strictly increasing and fits OCaml's
    63-bit ints, so keys order exactly as the float passes do.  A weight
    must be finite and positive, with a finite stride [10^6 / w];
    [set_weight] raises [Invalid_argument] on anything else (NaN,
    infinities, zero, negatives, and weights below ~5.6e-303 such as
    [1e-320], whose stride overflows).

    Pass values grow by [stride = 10^6 / weight] per grant; once the
    global pass exceeds 10^15 every pass is shifted down by the global
    pass and the backlogged flows are re-queued in their old order,
    O(flows log flows) — invisible to the grant order — so float
    addition never reaches the magnitude (~2^52) where a small stride
    stops being representable and a heavy-weight flow would silently
    starve. *)

val enqueue : t -> Cm_types.flow_id -> unit
(** Add one pending request for the flow. *)

val dequeue : t -> Cm_types.flow_id
(** Pick the next flow to grant (consumes one of its requests), or [-1]
    when no request is pending.  Flow ids are never negative (both
    schedulers reject them), so the sentinel cannot collide with a flow,
    and a grant allocates no option. *)

val remove : t -> Cm_types.flow_id -> unit
(** Discard all state for a closed flow. *)

val set_weight : t -> Cm_types.flow_id -> float -> unit
(** Set a flow's share weight (ignored by the round-robin scheduler). *)

val pending : t -> int
(** Total requests queued. *)

val pending_for : t -> Cm_types.flow_id -> int
(** Requests queued for one flow. *)
