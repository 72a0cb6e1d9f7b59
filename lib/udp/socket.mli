(** UDP sockets.

    Thin datagram sockets over the simulated IP layer: bind, optional
    connect, sendto with an arbitrary payload, and a receive callback.
    Everything CM-related (pacing, feedback) is layered above — see
    {!Feedback} and {!Udp_cc}. *)

open Netsim

type t
(** A UDP socket. *)

val create : Host.t -> ?dscp:int -> ?port:int -> unit -> t
(** [create host ()] binds an ephemeral port ([?port] to choose one).
    [dscp] is stamped on every outgoing datagram's flow (default 0), so a
    CM flow opened on the socket's 5-tuple with the same [dscp] matches
    the socket's own packets.  Raises [Invalid_argument] if the port is
    taken or [dscp] is not in 0..63. *)

val connect : t -> Addr.endpoint -> unit
(** Set the default destination (for {!send}) and install an exact-match
    demux entry for the return path, like a connected UDP socket.  The
    outgoing flow is built here, once; {!send} reuses it. *)

val sendto : t -> dst:Addr.endpoint -> payload_bytes:int -> Packet.payload -> unit
(** Transmit one datagram of [payload_bytes] to [dst].  The flow of the
    last [sendto] destination is cached and rebuilt only when [dst]
    changes, so a socket answering one peer allocates only the packet. *)

val send : t -> payload_bytes:int -> Packet.payload -> unit
(** Transmit to the connected destination.  Raises [Invalid_argument] if
    the socket is not connected. *)

val on_receive : t -> (Packet.t -> unit) -> unit
(** Receive callback (raw packets, so protocols can read their payload). *)

val local : t -> Addr.endpoint
(** The bound endpoint. *)

val dscp : t -> int
(** The socket's differentiated-services codepoint. *)

val peer : t -> Addr.endpoint option
(** The connected destination, if any. *)

val close : t -> unit
(** Release the port and demux entries. *)

val packets_sent : t -> int
(** Datagrams transmitted. *)

val packets_received : t -> int
(** Datagrams delivered to the receive callback. *)
