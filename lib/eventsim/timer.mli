(** Restartable one-shot and periodic timers on top of {!Engine}.

    Protocol code (TCP retransmission timers, vat's media clock, CM
    maintenance) needs timers that can be restarted or stopped without
    tracking raw engine handles.  A timer keeps one engine handle and one
    fire closure for life, so {!start}, {!stop} and expiry allocate
    nothing.

    {b Lazy re-arm.}  A timer touches the event queue only when it has
    work.  Each arm reserves a FIFO stamp ({!Engine.reserve_stamp}) at the
    moment an eager timer would have taken its queue position, and the
    timer's target is the key [(expiry, stamp)].  Re-arming to a later
    expiry leaves the queued event where it is; when that event fires
    early it re-queues at the target instead of running the callback.
    {!stop} cancels, so a stopped timer never advances the clock of a
    run-to-completion {!Engine.run}; a restart revives the cancelled
    event in place when it is not later than the new expiry.  The
    callback therefore runs at exactly the time, and in exactly the order
    among same-time events, that an eagerly moved event would have — the
    only visible cost is an extra dispatch per early fire, counted in
    {!Engine.events_executed}.

    {b Park and wake.}  A periodic timer whose ticks have nothing to do
    can {!park}: it keeps its phase but queues nothing until {!wake}. *)

open Cm_util

type t
(** A timer.  At most one expiry is pending at any time. *)

val create : Engine.t -> callback:(unit -> unit) -> t
(** A stopped timer that will run [callback] on expiry. *)

val start : t -> Time.span -> unit
(** Arm (or re-arm) the timer to fire after the given delay, replacing any
    pending expiry. *)

val start_periodic : t -> Time.span -> unit
(** Arm the timer to fire every [period] until {!stop}.  The callback runs
    once per period; the next tick's stamp is reserved before the
    callback and the tick is queued after it, so the callback may call
    {!stop}, {!start} or {!park}. *)

val stop : t -> unit
(** Cancel any pending expiry (a parked timer stays stopped). *)

val park : t -> unit
(** Stop queueing ticks of a periodic timer, keeping its phase
    [origin + k·period] and the stamp reserved for the next tick.  Meant
    for the timer's own callback when further ticks would do nothing
    until some state changes; the code that changes that state calls
    {!wake}.  A parked timer is not running ({!is_running}, {!expiry}).
    No-op if already parked or stopped; raises [Invalid_argument] on a
    one-shot timer. *)

val wake : t -> unit
(** Resume a parked timer on its phase; no-op otherwise.  If the next
    phase point [T] has not had its turn yet — [T] is later than now, or
    equal to now and its reserved stamp orders after the event being
    dispatched ({!Engine.current_stamp}) — the tick runs at [T] with that
    stamp, exactly as if the timer had ticked all along.

    Otherwise one or more phase points were skipped, and the timer
    resumes on the first phase point strictly after now, with a stamp
    taken at the wake.  This is the one tie-break that can differ from
    eager ticking: an eager tick at that point would carry a stamp taken
    one period earlier, and a skipped tick at the wake's own nanosecond
    is taken to have had its turn before the waking event. *)

val is_running : t -> bool
(** Whether an expiry is pending. *)

val expiry : t -> Time.t option
(** Absolute time of the pending expiry, if armed. *)
