(** Unidirectional links.

    A link serializes packets at its bandwidth, holds them in a queueing
    discipline while the transmitter is busy, applies an optional channel
    loss process (the Dummynet knob used throughout the paper's testbed),
    and delivers each packet to its sink after a propagation delay.  A
    packet goes on the wire when its transmission starts: its propagation
    delay is decided then, and its delivery is posted then, stamped among
    same-time events at that moment.  The end of a transmission queues an
    event only when a packet waits behind it.

    Bandwidth may be changed at runtime ({!set_bandwidth}): this is how the
    adaptation experiments (Figs. 8–10) emulate a wide-area path whose
    available bandwidth varies over time.  The dynamics subsystem
    ({!module:Cm_dynamics} in `lib/dynamics`) drives the fault knobs —
    {!take_down}/{!bring_up}, {!set_loss_model}, {!set_extra_delay},
    {!set_jitter} — from scripted scenarios. *)

open Cm_util
open Eventsim

(** Router queueing disciplines (re-exported as {!Netsim.Queue_disc}).

    Drop-tail FIFO (the "de-facto standard for kernel buffers and network
    router buffers", paper §3.6), RED with optional ECN marking (the
    paper's congestion-notification alternative, §2.1.3 / RFC 2481), and
    drop-tail plus a list of data packets to drop.  The discipline is a
    closed variant, so every operation below is one direct [match]. *)
module Queue_disc : sig
  type verdict =
    | Enqueued  (** Packet accepted (possibly ECN-marked). *)
    | Dropped  (** Packet dropped at enqueue. *)

  type t

  val droptail : ?limit_bytes:int -> limit_pkts:int -> unit -> t
  (** Classic FIFO: drop arrivals once [limit_pkts] packets (or, if given,
      [limit_bytes] bytes) are queued. *)

  val red :
    ?ecn:bool ->
    min_th:int ->
    max_th:int ->
    limit_pkts:int ->
    rng:Cm_util.Rng.t ->
    unit ->
    t
  (** Random Early Detection (Floyd & Jacobson) on the queue length in
      packets, with the standard EWMA average (weight 0.002) and marking
      probability ramp to 0.1.  With [~ecn:true],
      ECN-capable packets are marked instead of dropped below [max_th]. *)

  val drop_listed : drops:int list -> limit_pkts:int -> unit -> t
  (** {!droptail} that also drops each data packet (payload over 500 B)
      whose 1-based ordinal among the data packets offered is in [drops];
      these count in {!drops} like any other drop. *)

  val enqueue : t -> Packet.t -> verdict

  val dequeue : t -> Packet.t
  (** Head packet, or {!Packet.dummy} when the queue is empty (no option
      per dequeued packet; [Packet.dummy] is never sent, so [==] on it is
      unambiguous). *)

  val len : t -> int
  (** Packets queued. *)

  val bytes : t -> int
  (** Bytes queued. *)

  val drops : t -> int
  (** Cumulative drops. *)

  val marks : t -> int
  (** Cumulative ECN marks. *)
end

type t
(** A link. *)

type stats = {
  enqueued_pkts : int;  (** Packets accepted into the queue. *)
  delivered_pkts : int;  (** Packets handed to the sink. *)
  delivered_bytes : int;  (** Bytes handed to the sink. *)
  queue_drops : int;  (** Drops by the queueing discipline. *)
  channel_drops : int;  (** Random (Dummynet-style) channel losses. *)
  down_drops : int;  (** Packets killed by link outages. *)
  ecn_marks : int;  (** ECN marks applied by the discipline. *)
}
(** Cumulative counters. *)

val create :
  Engine.t ->
  bandwidth_bps:float ->
  delay:Time.span ->
  ?qdisc:Queue_disc.t ->
  ?loss_rate:float ->
  ?rng:Rng.t ->
  sink:(Packet.t -> unit) ->
  unit ->
  t
(** [create eng ~bandwidth_bps ~delay ~sink ()] is a link delivering to
    [sink].  Default discipline: 100-packet drop-tail.  [loss_rate] (with
    its [rng]) drops each packet independently with that probability before
    queueing; it must be in \[0,1\] (NaN rejected), else
    [Invalid_argument]. *)

val send : t -> Packet.t -> unit
(** Offer a packet to the link (the device output path). *)

val set_bandwidth : t -> float -> unit
(** Change the serialization rate; takes effect for the next packet to
    start transmission. *)

val bandwidth : t -> float
(** Current serialization rate in bits per second. *)

val set_loss_model : t -> (unit -> bool) option -> unit
(** Install a pluggable channel-loss process: the model is asked once per
    offered packet and returns [true] to lose it.  [Some m] overrides the
    baseline [loss_rate]; [None] restores it.  The dynamics subsystem
    provides Bernoulli and Gilbert–Elliott models. *)

val up : t -> bool
(** Whether the link is up (links start up). *)

val take_down : t -> unit
(** Fail the link: the packet under serialization and everything in
    propagation are dropped (counted in [down_drops]), the one under
    serialization first and the rest oldest first.  Their deliveries
    were posted when they started and are already queued; each of them
    pops nothing.  Packets offered while down are dropped too.  Queued
    packets survive, like a router buffer behind a dead interface.
    Idempotent. *)

val bring_up : t -> unit
(** Restore a failed link and resume draining the queue.  Idempotent. *)

val set_extra_delay : t -> Time.span -> unit
(** Add [d] to the propagation delay of transmissions that start from now
    on (a fault-injected delay spike); the packet being serialized keeps
    the delay it started with.  0 clears it. *)

val set_jitter : t -> Time.span -> unit
(** Add a per-packet uniform random delay in \[0,[j]) to the propagation
    of transmissions that start from now on (needs the link's [rng]),
    drawn when each starts; 0 clears it.  Delivery times vary but packet
    order stays FIFO. *)

val attach_telemetry : t -> name:string -> Telemetry.t -> unit
(** Wire this link into a telemetry instance: queue depth/bytes, per-cause
    drop counters, ECN marks, and bandwidth become sampled gauges (columns
    [link.<name>.qlen] …), and every drop emits a [link.drop] trace
    instant with its cause attribution ([channel] / [queue] / [down], the
    same split as the [stats] drop counters).  This is the link's one
    instrumentation entry point: a bounded instance (the flight recorder's
    ring) is attached the same way.  Until this is called the link holds
    the nil trace and the data path pays one branch per drop. *)

val stats : t -> stats
(** Snapshot of the counters. *)

val busy : t -> bool
(** Whether the transmitter is serializing: from a transmission's start
    until its end has had its turn among same-time events, also when a
    {!take_down} killed the packet. *)
