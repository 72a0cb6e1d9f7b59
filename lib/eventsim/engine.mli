(** Discrete-event simulation engine.

    A single-threaded event loop over virtual time: callbacks are scheduled
    at absolute timestamps and executed in timestamp order (FIFO among
    equal timestamps).  All simulated subsystems — links, timers, CPUs,
    protocol state machines — are driven from one engine, which makes every
    run fully deterministic. *)

open Cm_util

type t
(** An engine instance. *)

type handle
(** Names a scheduled event so it can be cancelled.
    Cancellation is lazy (O(1) mark-dead, skipped when it reaches the head
    of the queue).  Event cells are pooled and recycled across schedules;
    a stamp in the handle keeps stale handles safe — cancel on an event
    that already ran simply returns [false], even if its cell has since
    been reused for a newer event.  Firing writes nothing to the cell: a
    fired cell keeps its closure until the pool reuses it, and a handle is
    live only while its cell is still queued ({!Cm_util.Wheel.mem}).
    One handle can name a series of events through {!rearm}, so a
    long-lived owner (a {!Timer}) keeps one handle for life and re-arms
    without allocating. *)

val create : ?start:Time.t -> unit -> t
(** [create ()] is a fresh engine with the clock at [start]
    (default {!Time.zero}).  Events queue in a hashed timing wheel
    ({!Cm_util.Wheel}), which pops in exact (time, FIFO) order. *)

val inert : t
(** An engine nothing ever runs or schedules on, for placeholder values
    that need one: a stopped {!Timer.t} standing in for a timer not built
    yet.  It costs a few words, where {!create} builds a full wheel. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t when_ f] runs [f] when the clock reaches [when_].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t d f] is [schedule_at t (now t + max d 0) f].
    Negative delays are clamped to zero and counted in
    {!schedules_clamped}. *)

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

val current_stamp : t -> int
(** The stamp of the event being dispatched, or of the last one
    dispatched; [-1] before any, [max_int] once {!run} has returned (every
    event at or before {!now} has then had its turn).  An event keyed
    [(time, stamp)] has had its turn iff [time < now t], or
    [time = now t] and [stamp <= current_stamp t]. *)

val post_stamped : t -> Time.t -> stamp:int -> (unit -> unit) -> unit
(** [post_stamped t when_ ~stamp f] queues [f] at exactly [(when_, stamp)]
    in a pooled entry, with no handle: the event pops where one {!post}ed
    when [stamp] was taken would pop.  [stamp] must come from
    {!reserve_stamp} and name at most one queued event.  Raises
    [Invalid_argument] if [when_] is in the past. *)

val rearm : t -> handle -> Time.t -> stamp:int -> (unit -> unit) -> unit
(** [rearm t h when_ ~stamp f] makes [h] name a live event running [f]
    due no later than [(when_, stamp)], with as little queue work as
    possible.  If [h]'s event is still queued — live, or cancelled and not
    yet discarded — it becomes live again; it keeps its place when it is
    due strictly before [when_] (so it may fire early: the owner re-arms
    it from its callback), and is re-keyed to exactly [(when_, stamp)]
    otherwise.  If not, [f] is queued at [(when_, stamp)] in a pooled
    entry.  Any other handle that named an earlier event in that entry
    stays dead.  [stamp] must come from {!reserve_stamp} and name at most
    one queued event.  Raises [Invalid_argument] if [when_] is in the
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

val pool_size : t -> int
(** Number of recycled event cells currently on the free list.  Bounded
    by [max 64 (queued events)], so a transient burst's cells are
    released as the queue drains (diagnostics, tests). *)

val events_executed : t -> int
(** Total number of callbacks executed (diagnostics, bench). *)

val schedules_clamped : t -> int
(** Number of {!schedule_after} calls whose negative delay was clamped to
    zero — a misbehaving-caller diagnostic (diagnostics, bench). *)

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

val prof_enabled : t -> bool

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
  pr_pool_hw : int;  (** event-cell pool high-water *)
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
(** High-water of the recycled event-cell pool (diagnostics). *)

val queue_stats : t -> Cm_util.Wheel.stats
(** Occupancy counters of the underlying queue (overflow inserts and
    migrations, size high-water). *)
