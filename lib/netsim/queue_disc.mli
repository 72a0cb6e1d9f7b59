(** Router queueing disciplines.

    Drop-tail FIFO (the "de-facto standard for kernel buffers and network
    router buffers", paper §3.6) and RED with optional ECN marking (the
    paper's congestion-notification alternative, §2.1.3 / RFC 2481). *)

type verdict =
  | Enqueued  (** Packet accepted (possibly ECN-marked). *)
  | Dropped  (** Packet dropped at enqueue. *)

type t = {
  name : string;
  enqueue : Packet.t -> verdict;
  dequeue : unit -> Packet.t;
      (** Head packet, or {!Packet.dummy} when the queue is empty (no
          option per dequeued packet; [Packet.dummy] is never sent, so
          [==] on it is unambiguous). *)
  len : unit -> int;  (** Packets queued. *)
  bytes : unit -> int;  (** Bytes queued. *)
  drops : unit -> int;  (** Cumulative drop count. *)
  marks : unit -> int;  (** Cumulative ECN-mark count. *)
}
(** A queueing discipline as a record of operations. *)

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
