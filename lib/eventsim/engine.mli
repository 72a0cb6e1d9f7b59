(** Discrete-event simulation engine.

    A single-threaded event loop over virtual time: callbacks are scheduled
    at absolute timestamps and executed in timestamp order (FIFO among
    equal timestamps).  All simulated subsystems — links, timers, CPUs,
    protocol state machines — are driven from one engine, which makes every
    run fully deterministic.

    The event queue, the engine, {!Timer} and {!Cpu} are one compilation
    unit, so the event path makes no call into another unit. *)

open Cm_util

(** {1 The event queue} *)

(** A mutable priority queue over [(time, seq)] keys — [seq] is a
    counter, so ties pop FIFO — stored as a hashed timing wheel: entries
    within the horizon land in O(1) slots, the current slot drains through
    a small binary heap, and later entries overflow into a heap and
    migrate forward as the wheel turns.  Pops follow exactly the sorted
    [(time, seq)] order; [~slots:0] is a single binary heap over the same
    keys.  An entry is an int id; its storage holds no pointer but the
    value, and released ids are recycled.  The engine queues its events
    here, and the stride scheduler its backlogged flows. *)
module Queue : sig
  type 'a t

  val create : ?slots:int -> ?start:int -> dummy:'a -> unit -> 'a t
  (** An empty queue whose slots are [2^14] time units wide (16.384 us at
      ns resolution).  [slots] is a power of two below [2^19] (default
      1024, a ~16.8 ms horizon), or [0] for pure-heap mode; [start] is the
      earliest time it must order exactly; [dummy] fills unused value
      cells and is never handed back.  A popped id keeps its value until
      it is reused.  Raises [Invalid_argument] on any other [slots]. *)

  val size : 'a t -> int

  val alloc : 'a t -> 'a -> int
  (** An id holding the value, in no queue: a released one if any, else a
      fresh one. *)

  val release : 'a t -> int -> unit
  (** Return an allocated, unqueued id for reuse.  Raises
      [Invalid_argument] if it is queued or already free. *)

  val reinsert : 'a t -> int -> time:int -> unit
  (** Queue an allocated id with a fresh seq, so it ties behind every
      entry queued before.  Raises [Invalid_argument] if the id is queued
      or free. *)

  val reserve_seq : 'a t -> int
  (** Take the next seq now, for a later {!rekey}.  {!reinsert} and
      {!update} take one the same way. *)

  val rekey : 'a t -> int -> time:int -> seq:int -> unit
  (** Queue the id at exactly [(time, seq)]: moved if queued, queued if
      allocated.  It then pops where an entry queued when [seq] was
      reserved would.  [seq] must come from {!reserve_seq} and key at most
      one queued entry at a time.  Raises [Invalid_argument] on a free
      id. *)

  val min_id : 'a t -> int
  (** The minimum entry, left queued.  Raises [Invalid_argument] if
      empty. *)

  val pop_min : 'a t -> int
  (** Unqueue and return the minimum entry; the id stays allocated.
      Raises [Invalid_argument] if empty. *)

  val remove : 'a t -> int -> bool
  (** Unqueue an entry (the id stays allocated); [false] if not queued. *)

  val update : 'a t -> int -> time:int -> bool
  (** Move a queued entry to [time] with a fresh seq; [false] if not
      queued. *)

  val mem : 'a t -> int -> bool
  (** Whether the id is queued. *)

  val value : 'a t -> int -> 'a
  val time : 'a t -> int -> int

  val seq : 'a t -> int -> int
  (** The id's last seq: unique over the queue's life, so an (id, seq)
      pair names one queueing of it. *)

  val filter_in_place : 'a t -> ('a -> bool) -> unit
  (** Drop every queued entry whose value fails the predicate and release
      its id.  O(n). *)

  val ntz : int -> int
  (** Trailing zero bits of a non-zero 32-bit word, branch-free (a de
      Bruijn multiply and a 32-entry table): the occupancy-bitmap scan.
      Exposed for tests. *)
end

(** {1 The engine} *)

type t
(** An engine instance. *)

type handle
(** Names a scheduled event so it can be cancelled.  Cancellation is lazy
    (O(1) mark-dead, skipped when it reaches the head of the queue).  An
    event's queue id is recycled once it leaves the queue; the handle also
    holds the event's seq, so a handle to an event that ran, was cancelled
    or whose id now carries another event is dead: {!cancel} returns
    [false].  One handle can name a series of events through {!rearm}, so
    a long-lived owner (a {!Timer}) keeps one handle for life and re-arms
    without allocating. *)

val create : ?start:Time.t -> unit -> t
(** [create ()] is a fresh engine with the clock at [start] (default 0). *)

val inert : t
(** An engine nothing ever runs or schedules on, for placeholder values
    that need one: a stopped {!Timer.t} standing in for a timer not built
    yet.  It costs a few words, where {!create} builds a full wheel. *)

external now : t -> Time.t = "%field0"
(** Current virtual time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t when_ f] runs [f] when the clock reaches [when_].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t d f] is [schedule_at t (now t + max d 0) f]. *)

val post : t -> Time.span -> (unit -> unit) -> unit
(** [post t d f] is {!schedule_after} without the handle: same queue
    position, same FIFO stamp sequence, but nothing is allocated for the
    caller to hold.  For fire-and-forget events that are never cancelled
    — the per-packet, per-grant and per-cycle hot paths, CPU work items
    among them.  Pass a closure built once and reused,
    not one built per call. *)

val cancel : t -> handle -> bool
(** Cancel a pending event; [false] if it already ran or was cancelled.
    O(1): the event is marked dead and discarded when it surfaces. *)

val unscheduled : unit -> handle
(** A fresh handle that names no event, so it is never live: storage for
    {!rearm}. *)

(** {2 Reserved FIFO stamps}

    Every schedule takes the next FIFO stamp at the moment it is made.
    An owner may instead take the stamp now ({!reserve_stamp}) and queue
    with it later ({!rearm}, {!post_stamped}): the event then orders
    among same-time events exactly as if it had been queued when the
    stamp was taken.  This is how a {!Timer} defers queue work without
    changing pop order, and how a link queues the end of a transmission
    only when a later packet needs it. *)

val reserve_stamp : t -> int
(** Take the next FIFO stamp now, for a later {!rearm} or
    {!post_stamped}. *)

external current_stamp : t -> int = "%field1"
(** The stamp of the event being dispatched, or of the last one
    dispatched; [-1] before any, [max_int] once {!run} has returned (every
    event at or before {!now} has then had its turn).  An event keyed
    [(time, stamp)] has had its turn iff [time < now t], or
    [time = now t] and [stamp <= current_stamp t]. *)

val post_stamped : t -> Time.t -> stamp:int -> (unit -> unit) -> unit
(** [post_stamped t when_ ~stamp f] queues [f] at exactly [(when_, stamp)]
    with no handle: the event pops where one {!post}ed when [stamp] was
    taken would pop.  [stamp] must come from {!reserve_stamp} and name at
    most one queued event.  Raises [Invalid_argument] if [when_] is in the
    past. *)

val rearm : t -> handle -> Time.t -> stamp:int -> (unit -> unit) -> unit
(** [rearm t h when_ ~stamp f] makes [h] name a live event running [f]
    due no later than [(when_, stamp)], with as little queue work as
    possible.  If [h]'s event is still queued — live, or cancelled and not
    yet discarded — it becomes live again; it keeps its place when it is
    due strictly before [when_] (so it may fire early: the owner re-arms
    it from its callback), and is re-keyed to exactly [(when_, stamp)]
    otherwise.  If not, [f] is queued at [(when_, stamp)] under a
    recycled id.  Any other handle that named an earlier event under that
    id stays dead.  [stamp] must come from {!reserve_stamp} and name at
    most one queued event.  Raises [Invalid_argument] if [when_] is in the
    past. *)

val pending : t -> int
(** Number of events still queued. *)

val step : t -> bool
(** Execute the next event; [false] if the queue is empty. *)

val run : ?until:Time.t -> t -> unit
(** Run events in order.  With [until], stop once the next event would be
    strictly after [until] and advance the clock to [until]; without it,
    run until the queue drains. *)

val run_for : t -> Time.span -> unit
(** [run_for t d] is [run ~until:(now t + d) t]. *)

val events_executed : t -> int
(** Total number of callbacks executed (diagnostics, bench). *)

(** {1 Observability hooks}

    Both hooks are off by default; an un-hooked engine's dispatch path
    pays one extra load + branch over the bare call. *)

val enable_prof : t -> unit
(** Turn on the event-core profiler.  Dispatch counts are exact per
    category; wall-clock is attributed by sampling — every 1024
    dispatches one [Unix.gettimeofday] is taken and the interval since
    the previous sample is charged to the category of the event that
    just ran.  GC
    counters ({!Gc.quick_stat}) are snapshotted here and differenced by
    {!prof_report}.  Enable {e before} building the simulated system:
    {!prof_tag} is identity on an unprofiled engine, so closures created
    earlier stay untagged (counted as ["other"]).  Wall-clock figures are
    nondeterministic by nature — keep them out of seeded-JSON channels
    (the bench and stderr summaries are the intended sinks). *)

val prof_tag : t -> cat:string -> (unit -> unit) -> unit -> unit
(** [prof_tag t ~cat fn] wraps [fn] so its dispatches are charged to
    [cat] (one of ["timer"], ["net"], ["cm"]; anything else counts as
    ["other"]).  Identity when the profiler is off — call sites tag their
    long-lived callbacks unconditionally at creation time and only a
    profiled run pays the wrapper. *)

type prof_category = { pc_name : string; pc_dispatches : int; pc_wall_s : float }

type prof_report = {
  pr_categories : prof_category list;
  pr_dispatches : int;  (** total dispatches since enable (sum of categories) *)
  pr_samples : int;  (** wall-clock samples taken *)
  pr_wall_s : float;  (** wall seconds since enable *)
  pr_minor_words : float;
  pr_major_words : float;
  pr_promoted_words : float;
  pr_minor_collections : int;
  pr_major_collections : int;
  pr_pool_hw : int;  (** {!pool_hw} *)
  pr_queue : Cm_util.Wheel.stats;  (** queue occupancy counters *)
}

val prof_report : t -> prof_report option
(** The profile so far ([None] if {!enable_prof} was never called). *)

val set_escape_hook : t -> (exn -> unit) option -> unit
(** Install (or clear) a hook called when an exception escapes an event
    callback.  The hook runs before the exception propagates out of
    {!step}/{!run} — the flight recorder uses it to dump the last events
    leading up to a crash.  A hook must not raise. *)

val pool_hw : t -> int
(** High-water of allocated queue ids: the event storage that released
    ids recycle (diagnostics). *)

val queue_stats : t -> Cm_util.Wheel.stats
(** Occupancy counters of the queue (overflow inserts and migrations,
    size high-water). *)

(** {1 Timers and the CPU server} *)

type engine = t

(** Restartable one-shot and periodic timers (re-exported as
    {!Eventsim.Timer}).

    Protocol code (TCP retransmission timers, vat's media clock, CM
    maintenance) needs timers that can be restarted or stopped without
    tracking raw engine handles.  A timer keeps one engine handle and one
    fire closure for life, so {!start}, {!stop} and expiry allocate
    nothing.

    {b Lazy re-arm.}  A timer touches the event queue only when it has
    work.  Each arm reserves a FIFO stamp ({!reserve_stamp}) at the
    moment an eager timer would have taken its queue position, and the
    timer's target is the key [(expiry, stamp)].  Re-arming to a later
    expiry leaves the queued event where it is; when that event fires
    early it re-queues at the target instead of running the callback.
    {!stop} cancels, so a stopped timer never advances the clock of a
    run-to-completion {!run}; a restart revives the cancelled event in
    place when it is not later than the new expiry.  The callback
    therefore runs at exactly the time, and in exactly the order among
    same-time events, that an eagerly moved event would have — the only
    visible cost is an extra dispatch per early fire, counted in
    {!events_executed}.

    {b Park and wake.}  A periodic timer whose ticks have nothing to do
    can {!park}: it keeps its phase but queues nothing until {!wake}. *)
module Timer : sig
  type t
  (** A timer.  At most one expiry is pending at any time. *)

  val create : engine -> callback:(unit -> unit) -> t
  (** A stopped timer that will run [callback] on expiry. *)

  val start : t -> Time.span -> unit
  (** Arm (or re-arm) the timer to fire after the given delay, replacing
      any pending expiry. *)

  val start_periodic : t -> Time.span -> unit
  (** Arm the timer to fire every [period] until {!stop}.  The next
      tick's stamp is reserved before the callback and the tick is queued
      after it, so the callback may call {!stop}, {!start} or {!park}. *)

  val stop : t -> unit
  (** Cancel any pending expiry (a parked timer stays stopped). *)

  val park : t -> unit
  (** Stop queueing ticks of a periodic timer, keeping its phase
      [origin + k·period] and the stamp reserved for the next tick.  Meant
      for the timer's own callback when further ticks would do nothing
      until some state changes; the code that changes that state calls
      {!wake}.  A parked timer is not running.  No-op if already parked or
      stopped; raises [Invalid_argument] on a one-shot timer. *)

  val wake : t -> unit
  (** Resume a parked timer on its phase; no-op otherwise.  If the next
      phase point [T] has not had its turn yet — [T] is later than now, or
      equal to now and its reserved stamp orders after the event being
      dispatched ({!current_stamp}) — the tick runs at [T] with that
      stamp, exactly as if the timer had ticked all along.

      Otherwise the timer resumes on the first phase point strictly after
      now, with a stamp taken at the wake.  This is the one tie-break
      that can differ from eager ticking: an eager tick at that point
      would carry a stamp taken one period earlier, and a skipped tick at
      the wake's own nanosecond is taken to have had its turn before the
      waking event. *)

  val is_running : t -> bool
  (** Whether an expiry is pending. *)

  val expiry : t -> Time.t option
  (** Absolute time of the pending expiry, if armed. *)
end

(** A host CPU modeled as a serial resource (re-exported as
    {!Netsim.Cpu}).

    The paper's overhead results (Figs. 5 and 6, Table 1) are driven by
    where CPU cycles go: syscalls, data copies, protocol processing.  Each
    host owns one CPU; work items occupy it for a cost-model duration and
    execute in submission order.  Utilization is busy time over elapsed
    time, exactly how the paper reports Fig. 5. *)
module Cpu : sig
  type t

  val create : engine -> t
  (** A CPU bound to the engine's clock, idle at creation. *)

  val run : t -> cost:Time.span -> (unit -> unit) -> unit
  (** [run t ~cost f] occupies the CPU for [cost] then executes [f].  If
      the CPU is busy the work starts when it frees.  [cost = 0] with an
      idle CPU executes [f] immediately (no event).  Otherwise one event
      is {!post}ed at the finish time.  Items run in submission order, so
      a caller may queue its work items in a FIFO of its own and pass the
      same closure every time, one that pops the head (what [Tcp.Conn]
      does per packet). *)

  val charge : t -> Time.span -> unit
  (** Account [cost] of busy time without running anything afterwards
      (receive-path work whose completion nothing waits on). *)

  val total_busy : t -> Time.span
  (** Cumulative busy time since creation. *)

  val utilization : t -> since_busy:Time.span -> since_time:Time.t -> float
  (** [utilization t ~since_busy ~since_time] is the fraction of time
      spent busy between a snapshot ([since_busy] = {!total_busy} then,
      [since_time] = the then-current time) and now. *)
end
