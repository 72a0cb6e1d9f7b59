(** Simulated packets.

    A packet is metadata plus an extensible-variant payload, so transport
    libraries can add their own segment types ([type Packet.payload += Tcp_seg
    of …]) without creating a dependency from the network layer to the
    transports.  Data contents are never materialized — only sizes. *)

open Cm_util

type payload = ..
(** Extensible payload. *)

type payload += Raw of int
      (** Opaque application data of the given length (bytes). *)

type t = {
  id : int;  (** Globally unique (diagnostics, tracing). *)
  flow : Addr.flow;  (** Transport 5-tuple of this packet. *)
  size : int;  (** Wire size in bytes, headers included. *)
  sent_at : Time.t;  (** Timestamp at first transmission onto a link. *)
  mutable ecn : int;
      (** The ECN bits, ECT and CE, as they share the IP header's ECN
          field; read and set them with the accessors below. *)
  payload : payload;
}
(** A packet in flight: 7 words, one per field plus the header. *)

val header_bytes : int
(** Combined link + IP + transport header size charged on every packet
    (Ethernet-era 40-byte IP+transport plus framing ≈ 58). *)

val make : now:Time.t -> flow:Addr.flow -> payload_bytes:int -> payload -> t
(** [make ~now ~flow ~payload_bytes p] is a packet whose wire size is
    [payload_bytes + header_bytes], not ECN-capable (a sender that is
    calls {!set_ecn_capable} after). *)

val ecn_capable : t -> bool
(** ECT codepoint: the sender supports ECN. *)

val ecn_marked : t -> bool
(** CE codepoint: a router marked congestion. *)

val set_ecn_capable : t -> unit
(** Set ECT.  Leaves CE as it is. *)

val mark_ce : t -> unit
(** Set CE (a router's congestion mark).  Leaves ECT as it is. *)

val dummy : t
(** A placeholder that is never sent: id 0 (real ids start at 1, and
    making it takes none), zero size.  Fills the empty slots of packet
    {!Cm_util.Byte_queue}s, and stands for "no packet" where an option
    per packet would otherwise be built (an empty qdisc's [dequeue], a
    link with nothing on the wire); test it with [==]. *)

val payload_bytes : t -> int
(** Wire size minus {!header_bytes} (never negative). *)

val reset_ids : unit -> unit
(** Restart the process-global id counter.  Packet ids appear in exported
    trace artifacts, so repeated in-process captures ([Capture]) reset
    the counter to keep same-seed runs byte-identical.  Only call between
    simulations — concurrent engines would reuse ids. *)

val pp : Format.formatter -> t -> unit
(** One-line description for traces. *)
