(** Restartable one-shot and periodic timers on top of {!Engine}.

    Protocol code (TCP retransmission timers, vat's media clock, CM
    maintenance) needs timers that can be restarted or stopped without
    tracking raw engine handles.  A timer keeps one engine handle and one
    fire closure for life, so {!start}, {!stop} and expiry allocate
    nothing. *)

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
    once per period; re-arming happens before the callback so the callback
    may call {!stop} or {!start}. *)

val stop : t -> unit
(** Cancel any pending expiry. *)

val is_running : t -> bool
(** Whether an expiry is pending. *)

val expiry : t -> Time.t option
(** Absolute time of the pending expiry, if armed. *)
