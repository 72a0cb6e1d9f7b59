(** TCP segments.

    The wire format carried in {!Netsim.Packet} payloads: sequence/ack
    numbers, flags, advertised window, RFC 1323 timestamps, and the ECN
    echo bit.  Data is represented by its length only; sequence-number
    arithmetic is exact.

    A segment is built only by {!make}.  Its four one-bit flags (SYN,
    FIN, ACK, ECE) share one [flags] int, as they share a header byte on
    the wire, and are read through {!syn}, {!fin}, {!ack} and {!ece}; a
    segment is 9 words where four [bool] fields made it 12, and TCP
    builds one per data packet and per ack. *)

open Cm_util

type t = private {
  seq : int;  (** Sequence number of the first payload byte (or of SYN/FIN). *)
  len : int;  (** Payload length in bytes. *)
  flags : int;  (** SYN, FIN, ACK and ECE bits; read them with the accessors. *)
  ack_seq : int;  (** Cumulative acknowledgment (valid when [ack s]). *)
  wnd : int;  (** Advertised receive window, bytes. *)
  ts_val : Time.t;  (** Sender timestamp (RFC 1323 TSval); 0 if unused. *)
  ts_ecr : Time.t;  (** Echoed peer timestamp (TSecr); 0 if none. *)
  sacks : (int * int) list;
      (** SACK blocks (RFC 2018): up to three [start, stop) ranges of
          out-of-order data the receiver holds. *)
}
(** One TCP segment. *)

type Netsim.Packet.payload += Tcp_seg of t
      (** Extensible payload constructor registered with the network layer. *)

val make :
  seq:int ->
  len:int ->
  syn:bool ->
  fin:bool ->
  ack:bool ->
  ack_seq:int ->
  wnd:int ->
  ts_val:Time.t ->
  ts_ecr:Time.t ->
  ece:bool ->
  sacks:(int * int) list ->
  t
(** The segment with these fields; the four flags are packed into
    [flags].  Allocates the record only. *)

val syn : t -> bool
(** SYN: the segment opens a connection; occupies one sequence number. *)

val fin : t -> bool
(** FIN: the sender has no more data; occupies one sequence number. *)

val ack : t -> bool
(** ACK: [ack_seq] is valid. *)

val ece : t -> bool
(** ECN-echo: the receiver saw a CE mark. *)

val seg_end : t -> int
(** [seg_end s] is the sequence number just past this segment, counting
    SYN and FIN as one unit each. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering like [seq=4344 len=1448 ack=1 wnd=46336] for
    traces. *)
