(** Router queueing disciplines.

    Drop-tail FIFO (the "de-facto standard for kernel buffers and network
    router buffers", paper §3.6), RED with optional ECN marking (the
    paper's congestion-notification alternative, §2.1.3 / RFC 2481), and
    drop-tail plus a list of data packets to drop.  The discipline is a
    closed variant, so every operation below is one direct [match]. *)

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
